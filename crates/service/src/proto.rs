//! Wire protocol: session events, request/response messages and the
//! length-prefixed binary framing used over TCP.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; payloads are a one-byte tag plus fixed-width little-endian
//! fields. The decoder is total: any byte sequence either decodes or
//! returns a typed [`WireError`] — it never panics on a slice index and
//! never allocates proportionally to an attacker-controlled count beyond
//! the [`MAX_BATCH`]/[`MAX_FRAME`] bounds.

use std::fmt;
use std::io::{self, Read, Write};

use deltaos_core::avoid::{GiveUpAsk, GiveUpReason, ReleaseOutcome};
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::{CoreError, Priority, ProcId, ResId};

/// Hard upper bound on a frame payload. Anything larger is rejected
/// before allocation — a corrupt or hostile length prefix must not
/// become an OOM.
pub const MAX_FRAME: usize = 1 << 20;

/// Hard upper bound on events per batch at the wire level (the service
/// applies its own, possibly tighter, admission-control cap).
pub const MAX_BATCH: usize = 4096;

/// Identifies one RAG session owned by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One resource event applied to a session's RAG, in order. The WAL logs
/// the same type, so a batch goes to the log without conversion.
pub use deltaos_store::WalEvent as Event;

/// Why an event was rejected (mirrors [`CoreError`] without payloads the
/// wire does not need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Process or resource id out of range for the session.
    UnknownId,
    /// The request edge already exists.
    DuplicateEdge,
    /// Grant on a resource that already has an owner.
    ResourceBusy,
    /// Release/grant bookkeeping by a non-owner.
    NotOwner,
    /// A holder re-requesting a resource it owns.
    RequestWhileHolding,
    /// Release of an edge that does not exist.
    NoSuchEdge,
}

impl From<&CoreError> for RejectReason {
    fn from(e: &CoreError) -> Self {
        match e {
            CoreError::UnknownProcess(_) | CoreError::UnknownResource(_) => RejectReason::UnknownId,
            CoreError::DuplicateEdge { .. } => RejectReason::DuplicateEdge,
            CoreError::ResourceBusy { .. } => RejectReason::ResourceBusy,
            CoreError::RequestWhileHolding { .. } => RejectReason::RequestWhileHolding,
            // `CoreError` is non_exhaustive; NotOwner and any future
            // variant map to the closest wire reason.
            _ => RejectReason::NotOwner,
        }
    }
}

/// Per-event reply, positionally matching the submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventResult {
    /// Edit applied.
    Ack,
    /// Detection outcome for `Probe` / `WouldDeadlock`.
    Outcome(DetectOutcome),
    /// Edit refused; session state unchanged.
    Rejected(RejectReason),
}

/// Service-level failures reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No session with that id on this shard.
    UnknownSession,
    /// Admission control: the shard's session table is full.
    TooManySessions,
    /// Admission control: batch longer than the configured cap.
    BatchTooLarge,
    /// Open with zero or over-cap dimensions.
    BadDimensions,
    /// The service has shut down.
    Shutdown,
    /// The frame decoded but was not a valid request in context.
    BadRequest,
    /// A `Restore` payload did not decode as a valid session snapshot,
    /// or violated the service's dimension/session limits.
    InvalidSnapshot,
    /// A `Snapshot` of this session would not fit in one wire frame.
    SnapshotTooLarge,
    /// A broker op (`SetPriority`/`Acquire`/`BrokerRelease`/`GiveUpAck`)
    /// was sent to a session opened without avoidance.
    AvoidanceOff,
    /// A raw edit batch was sent to a broker session — its RAG belongs
    /// to Algorithm 3; direct edits would corrupt the avoider's
    /// invariants.
    AvoidanceOn,
    /// A state-mutating request reached a replica. Followers serve
    /// probes, stats, snapshots and subscriptions only; writes must go
    /// to the primary.
    ReadOnlyReplica,
    /// The request carried a stale epoch: a fenced former primary (or a
    /// `Promote` that does not advance the epoch) tried to write past a
    /// newer incarnation's authority.
    EpochFenced,
    /// A `Subscribe` asked for WAL records older than the primary's
    /// replication buffer retains; the follower must re-seed from a
    /// checkpoint/snapshot instead of tailing.
    SubscribeGap,
}

/// Per-session avoidance policy chosen at open time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AvoidanceMode {
    /// No broker: the session is today's probe-only deadlock oracle and
    /// rejects broker ops with [`ErrorCode::AvoidanceOff`].
    #[default]
    Off,
    /// Broker decisions through an [`deltaos_core::avoid::Avoider`]
    /// probing an [`deltaos_core::avoid::EngineProbe`] — identical
    /// decisions to [`AvoidanceMode::Metered`], zero reported cycles.
    FastPath,
    /// Broker decisions through the metered software DAA
    /// ([`deltaos_core::daa::SwDaa`], MPC755 shared-memory cost model);
    /// replies carry the paper's Table 7/9 cycle accounting.
    Metered,
}

/// A client → service message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create a session with an empty `resources` × `processes` RAG.
    Open {
        /// Resource-row count.
        resources: u16,
        /// Process-column count.
        processes: u16,
    },
    /// Apply `events` to `session` in order.
    Batch {
        /// Target session.
        session: SessionId,
        /// Events, applied in order.
        events: Vec<Event>,
    },
    /// Destroy `session`, folding its engine counters into shard stats.
    Close {
        /// Session to close.
        session: SessionId,
    },
    /// Fetch per-shard counters.
    Stats,
    /// Capture `session` as a durable snapshot (RAG edges + engine
    /// counters), returned opaque in [`Response::Snapshot`].
    Snapshot {
        /// Session to capture.
        session: SessionId,
    },
    /// Recreate a session from a snapshot previously returned by
    /// [`Response::Snapshot`]. The restored session gets a fresh id
    /// (returned in [`Response::Opened`]); the embedded id is ignored.
    Restore {
        /// Opaque snapshot bytes (`deltaos-store` session encoding).
        snapshot: Vec<u8>,
    },
    /// Create a session with an avoidance broker attached. `mode`
    /// selects the decision engine; `Off` behaves exactly like
    /// [`Request::Open`].
    OpenAvoid {
        /// Resource-row count.
        resources: u16,
        /// Process-column count.
        processes: u16,
        /// Broker decision engine.
        mode: AvoidanceMode,
    },
    /// Broker: set the arbitration priority of process `p` (smaller
    /// value = higher priority). Answered with [`Response::Ack`].
    SetPriority {
        /// Target session.
        session: SessionId,
        /// Process whose priority changes.
        p: ProcId,
        /// New priority.
        priority: Priority,
    },
    /// Broker: process `p` asks for resource `q` through Algorithm 3.
    /// With `wait = false` the decision comes back immediately
    /// ([`Response::Granted`] / [`Response::Deferred`] /
    /// [`Response::GiveUp`]). With `wait = true` a non-R-dl deferral
    /// **blocks the reply slot**: the connection's response arrives only
    /// once a release grants the resource (R-dl still answers
    /// immediately with [`Response::GiveUp`] — the requester must learn
    /// the ask).
    Acquire {
        /// Target session.
        session: SessionId,
        /// Requesting process.
        p: ProcId,
        /// Requested resource.
        q: ResId,
        /// Block the reply until granted instead of reporting `Deferred`.
        wait: bool,
    },
    /// Broker: process `p` releases resource `q`; the broker re-runs
    /// grant arbitration over the waiters and answers
    /// [`Response::Resolved`]. Any waiter granted as a side effect gets
    /// its blocked [`Request::Acquire`] reply pushed on its own
    /// connection.
    BrokerRelease {
        /// Target session.
        session: SessionId,
        /// Releasing process.
        p: ProcId,
        /// Released resource.
        q: ResId,
    },
    /// Broker: process `p` honors its outstanding give-up asks,
    /// releasing every resource the broker asked it to shed in one step.
    /// Answered with [`Response::Resolved`] for the final release.
    GiveUpAck {
        /// Target session.
        session: SessionId,
        /// The process shedding its asked resources.
        p: ProcId,
    },
    /// Durability barrier: force the owning shard's WAL to disk and
    /// reply [`Response::Synced`] once the durable LSN covers every
    /// record logged before this request — including read-only batches'
    /// records, whose replies go out before their flush, and everything
    /// an `FsyncPolicy::Os` shard has logged. The session
    /// is a routing key only — it selects the shard and need not be
    /// open. On a memory-only service the barrier is trivially
    /// satisfied (`durable_lsn = 0`).
    Sync {
        /// Session whose owning shard is flushed.
        session: SessionId,
    },
    /// Replication: poll shard `shard` for WAL records with sequence
    /// numbers `>= from_seq`, answered with one bounded
    /// [`Response::WalSegment`]. The poll doubles as the follower's
    /// heartbeat, and `acked_seq` piggybacks the follower's durable
    /// frontier so a `repl_ack`-gated primary can release withheld
    /// replies.
    Subscribe {
        /// Shard whose WAL is tailed.
        shard: u16,
        /// First sequence number wanted (records below are skipped).
        from_seq: u64,
        /// Highest WAL seq the follower has made durable locally
        /// (0 = nothing acknowledged yet).
        acked_seq: u64,
    },
    /// Replication: read shard `shard`'s role, epoch and replication
    /// frontiers, answered with [`Response::ReplicaStatus`]. Passive —
    /// forces no fsync; the reported durable frontier is the fsynced
    /// floor at the time of the request.
    ReplicaStatus {
        /// Shard inspected.
        shard: u16,
    },
    /// Replication: promote shard `shard` to primary under `epoch`.
    /// The epoch must strictly exceed the shard's current epoch or the
    /// request fails with [`ErrorCode::EpochFenced`] — the fencing rule
    /// that keeps a deposed primary from reclaiming authority.
    Promote {
        /// Shard promoted.
        shard: u16,
        /// New epoch; must be greater than the shard's current epoch.
        epoch: u64,
    },
}

/// Key per-shard counters serialized in a [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u16,
    /// Events ingested (every event of every accepted batch).
    pub events: u64,
    /// Probes served (`Probe` + `WouldDeadlock`).
    pub probes: u64,
    /// Engine result-cache hits across the shard's sessions.
    pub cache_hits: u64,
    /// Reductions served by the dense matrix path (live + retired).
    pub dense_reductions: u64,
    /// Reductions served by the sparse adjacency-list path (live +
    /// retired).
    pub sparse_reductions: u64,
    /// Live edges summed across the shard's open sessions (gauge).
    pub live_edges: u64,
    /// Shard-wide RAG density in permille over the combined area of the
    /// shard's open sessions (gauge).
    pub density_permille: u64,
    /// Broker: resources granted (immediate + woken waiters), live +
    /// retired.
    pub broker_grants: u64,
    /// Broker: acquires deferred (queued or parked), live + retired.
    pub broker_deferrals: u64,
    /// Broker: give-up asks issued (R-dl + livelock), live + retired.
    pub broker_give_ups: u64,
    /// Broker: livelock resolutions fired, live + retired.
    pub broker_livelocks: u64,
    /// Broker: currently blocked `Acquire` reply slots across the
    /// shard's sessions (gauge).
    pub broker_waiters: u64,
    /// Group-commit pipeline: fsyncs issued by the shard's WAL (group
    /// flushes + barriers). 0 without durability.
    pub pipeline_fsyncs: u64,
    /// Group-commit pipeline: group flushes that released at least one
    /// withheld reply. 0 outside `FsyncPolicy::Pipelined`.
    pub pipeline_batches: u64,
    /// Group-commit pipeline: largest record batch covered by one
    /// flush.
    pub pipeline_batch_max: u64,
    /// Group-commit pipeline: high-water mark of replies withheld at
    /// once.
    pub pipeline_withheld_peak: u64,
    /// Group-commit pipeline: p50 commit latency (append → durable) in
    /// microseconds.
    pub pipeline_commit_p50_us: u64,
    /// Group-commit pipeline: p99 commit latency (append → durable) in
    /// microseconds.
    pub pipeline_commit_p99_us: u64,
    /// Replication: records the connected follower has yet to
    /// acknowledge (`last_seq - follower_acked_seq`; gauge). 0 when no
    /// follower has ever subscribed.
    pub repl_lag_records: u64,
    /// Replication: highest WAL seq a follower has acknowledged durable
    /// (gauge).
    pub follower_acked_seq: u64,
    /// Replication: the shard's current fencing epoch (gauge).
    pub epoch: u64,
    /// Replication: promotions this shard has accepted since start.
    pub promotions: u64,
}

/// Front-end health counters of the runtime's loops, serialized in a
/// [`Response::Stats`] — operators see reap/busy/backlog health over the
/// wire without process introspection. The runtime always reports them;
/// the field stays optional on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Currently open connections.
    pub active: u64,
    /// Connections closed for any reason (EOF, error, reaped).
    pub closed: u64,
    /// Connections reaped by the idle timeout.
    pub reaped_idle: u64,
    /// Connections reaped by the partial-frame (slow-loris) deadline.
    pub reaped_partial: u64,
    /// Connections dropped after an undecodable frame (desync).
    pub desynced: u64,
    /// Frames decoded and dispatched.
    pub frames_in: u64,
    /// Replies written back.
    pub replies_out: u64,
    /// `Busy` replies sent under shard backpressure.
    pub busy_replies: u64,
    /// Payload + framing bytes read.
    pub bytes_in: u64,
    /// Payload + framing bytes written.
    pub bytes_out: u64,
}

impl FrontendStats {
    /// Total connections reaped by either guard.
    pub fn connections_reaped(&self) -> u64 {
        self.reaped_idle + self.reaped_partial
    }
}

/// Per-loop counters of the thread-per-core runtime
/// (`service::core_runtime`), serialized in a [`Response::Stats`]. One
/// row per pinned loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Loop index (0-based).
    pub core: u16,
    /// Connections currently housed on this loop (gauge).
    pub conns: u64,
    /// Frames decoded and dispatched by this loop.
    pub frames_in: u64,
    /// Replies written back by this loop.
    pub replies_out: u64,
    /// Requests executed inline on the owning loop — no cross-thread
    /// hand-off of any kind.
    pub inline_ops: u64,
    /// Requests forwarded to another loop's inbox because the session's
    /// shard lives there and the connection could not (yet) migrate.
    pub cross_core_forwards: u64,
    /// Connections adopted from another loop (fd hand-off at open).
    pub migrations_in: u64,
    /// Self-pipe wakeups drained (cross-core notifications).
    pub wakeups: u64,
    /// Poll returns with zero ready fds while cross-core work was in
    /// flight on this loop — 0 in steady state (no degraded ticks).
    pub busy_poll_ticks: u64,
}

/// A service → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session created.
    Opened(SessionId),
    /// Per-event results for a batch, in submission order.
    Batch(Vec<EventResult>),
    /// Session closed.
    Closed,
    /// Backpressure: the target shard's queue is full — retry later.
    /// Nothing was applied.
    Busy,
    /// Per-shard counters plus front-end health (when the serving
    /// front-end tracks it).
    Stats {
        /// Per-shard counters.
        shards: Vec<ShardStats>,
        /// Front-end counters; `None` from front-ends without them.
        frontend: Option<FrontendStats>,
        /// Per-loop counters of the thread-per-core runtime; empty from
        /// front-ends without per-core loops.
        cores: Vec<CoreStats>,
    },
    /// Opaque durable image of one session.
    Snapshot(Vec<u8>),
    /// Request failed.
    Error(ErrorCode),
    /// Broker: the acquire's resource is granted — immediately, or (for
    /// a blocked `wait = true` acquire) pushed once a release freed it.
    /// `cycles`/`probes` carry the metered cost of the deciding command
    /// (zero in fast-path mode).
    Granted {
        /// Metered bus-clock cycles of the deciding command.
        cycles: u64,
        /// Detection probes the decision ran.
        probes: u32,
    },
    /// Broker: the acquire is queued behind the current owner (no
    /// deadlock risk). Re-evaluated on every release of the resource.
    Deferred {
        /// Metered bus-clock cycles of the deciding command.
        cycles: u64,
        /// Detection probes the decision ran.
        probes: u32,
    },
    /// Broker: the acquire hit request-deadlock — the request is parked
    /// and `ask` names who must shed which resources (`ask.reason`
    /// distinguishes the owner-asked vs requester-sheds R-dl arms).
    GiveUp {
        /// The give-up ask issued by Algorithm 3.
        ask: GiveUpAsk,
        /// Metered bus-clock cycles of the deciding command.
        cycles: u64,
        /// Detection probes the decision ran.
        probes: u32,
    },
    /// Broker: a release (or give-up acknowledgement) was arbitrated.
    /// `outcome` carries the full DAA decision: hand-off target,
    /// G-dl-bypassed waiters, or the livelock ask.
    Resolved {
        /// The release decision.
        outcome: ReleaseOutcome,
        /// Livelock resolutions fired on this session so far (the
        /// resolution round counter).
        livelock_rounds: u64,
        /// Metered bus-clock cycles of the command(s).
        cycles: u64,
        /// Detection probes the command(s) ran.
        probes: u32,
    },
    /// Broker: side-effect-only op (e.g. `SetPriority`) applied.
    Ack,
    /// Broker: the op violated a protocol assumption (duplicate acquire,
    /// release by a non-owner, out-of-range id). Session state is
    /// unchanged.
    Rejected(RejectReason),
    /// A [`Request::Sync`] barrier completed: every record the shard
    /// logged before the barrier is durable. `durable_lsn` is the
    /// shard's WAL durable frontier at the reply (0 on a memory-only
    /// service, where the barrier is vacuous).
    Synced {
        /// The shard's durable WAL sequence number.
        durable_lsn: u64,
    },
    /// Replication: one bounded slice of a shard's WAL answering a
    /// [`Request::Subscribe`] poll. `records` holds at most
    /// [`MAX_BATCH`] `(seq, epoch, op_bytes)` triples, op bytes opaque
    /// at the wire layer (the follower hands them to its store, whose
    /// total decoder owns validation). Empty `records` with
    /// `last_seq >= from_seq - 1` means the follower is caught up.
    WalSegment {
        /// Shard the records belong to.
        shard: u16,
        /// The primary's current fencing epoch.
        epoch: u64,
        /// The primary's fsynced WAL floor — the durable-frontier
        /// invariant applies: never the appended seq.
        durable_seq: u64,
        /// The primary's highest appended WAL seq (0 = empty log).
        last_seq: u64,
        /// `(seq, epoch, encoded WalOp)` triples in seq order.
        records: Vec<(u64, u64, Vec<u8>)>,
    },
    /// Replication: a shard's role, epoch and frontiers, answering
    /// [`Request::ReplicaStatus`].
    ReplicaStatus(ReplStatus),
}

/// One shard's replication posture, carried by
/// [`Response::ReplicaStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplStatus {
    /// Shard inspected.
    pub shard: u16,
    /// `true` if the shard currently serves writes (primary role).
    pub primary: bool,
    /// Current fencing epoch.
    pub epoch: u64,
    /// Highest appended WAL seq (0 = empty log).
    pub last_seq: u64,
    /// Fsynced WAL floor (the durable-frontier invariant: only ever the
    /// fdatasync'd floor, never the appended seq).
    pub durable_seq: u64,
    /// Highest WAL seq a subscribed follower has acknowledged durable.
    pub acked_seq: u64,
    /// Promotions accepted since start.
    pub promotions: u64,
}

/// Typed decode/framing failure. Total over arbitrary input: malformed
/// bytes produce one of these, never a panic.
#[derive(Debug)]
pub enum WireError {
    /// Payload ended before the message did.
    Truncated,
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// Unknown tag byte for the given message kind.
    UnknownTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Message decoded but bytes remain.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// Batch/stats element count above the wire cap.
    CountTooLarge {
        /// The claimed element count.
        count: u32,
    },
    /// Clean end-of-stream before a frame began.
    Closed,
    /// Underlying transport failure.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-message"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag:#04x}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            WireError::CountTooLarge { count } => {
                write!(f, "element count {count} exceeds wire cap")
            }
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_event(out: &mut Vec<u8>, ev: &Event) {
    match *ev {
        Event::Request { p, q } => {
            out.push(0x10);
            put_u16(out, p.0);
            put_u16(out, q.0);
        }
        Event::Grant { q, p } => {
            out.push(0x11);
            put_u16(out, q.0);
            put_u16(out, p.0);
        }
        Event::Release { q, p } => {
            out.push(0x12);
            put_u16(out, q.0);
            put_u16(out, p.0);
        }
        Event::Probe => out.push(0x13),
        Event::WouldDeadlock { p, q } => {
            out.push(0x14);
            put_u16(out, p.0);
            put_u16(out, q.0);
        }
    }
}

fn reject_code(r: RejectReason) -> u8 {
    match r {
        RejectReason::UnknownId => 1,
        RejectReason::DuplicateEdge => 2,
        RejectReason::ResourceBusy => 3,
        RejectReason::NotOwner => 4,
        RejectReason::RequestWhileHolding => 5,
        RejectReason::NoSuchEdge => 6,
    }
}

fn error_code(e: ErrorCode) -> u8 {
    match e {
        ErrorCode::UnknownSession => 1,
        ErrorCode::TooManySessions => 2,
        ErrorCode::BatchTooLarge => 3,
        ErrorCode::BadDimensions => 4,
        ErrorCode::Shutdown => 5,
        ErrorCode::BadRequest => 6,
        ErrorCode::InvalidSnapshot => 7,
        ErrorCode::SnapshotTooLarge => 8,
        ErrorCode::AvoidanceOff => 9,
        ErrorCode::AvoidanceOn => 10,
        ErrorCode::ReadOnlyReplica => 11,
        ErrorCode::EpochFenced => 12,
        ErrorCode::SubscribeGap => 13,
    }
}

fn mode_code(m: AvoidanceMode) -> u8 {
    match m {
        AvoidanceMode::Off => 0,
        AvoidanceMode::FastPath => 1,
        AvoidanceMode::Metered => 2,
    }
}

fn giveup_reason_code(r: GiveUpReason) -> u8 {
    match r {
        GiveUpReason::RequestDeadlock => 1,
        GiveUpReason::RequesterSheds => 2,
        GiveUpReason::Livelock => 3,
    }
}

fn put_ask(out: &mut Vec<u8>, ask: &GiveUpAsk) {
    put_u16(out, ask.target.0);
    out.push(giveup_reason_code(ask.reason));
    put_u16(out, ask.resources.len() as u16);
    for q in &ask.resources {
        put_u16(out, q.0);
    }
}

fn put_release_outcome(out: &mut Vec<u8>, o: &ReleaseOutcome) {
    match o {
        ReleaseOutcome::NoWaiters => out.push(0),
        ReleaseOutcome::GrantedTo {
            process,
            bypassed_gdl,
        } => {
            out.push(1);
            put_u16(out, process.0);
            put_u16(out, bypassed_gdl.len() as u16);
            for p in bypassed_gdl {
                put_u16(out, p.0);
            }
        }
        ReleaseOutcome::Livelock { ask } => {
            out.push(2);
            match ask {
                None => out.push(0),
                Some(a) => {
                    out.push(1);
                    put_ask(out, a);
                }
            }
        }
    }
}

fn frontend_fields(f: &FrontendStats) -> [u64; 11] {
    [
        f.accepted,
        f.active,
        f.closed,
        f.reaped_idle,
        f.reaped_partial,
        f.desynced,
        f.frames_in,
        f.replies_out,
        f.busy_replies,
        f.bytes_in,
        f.bytes_out,
    ]
}

/// Serializes a request payload (no length prefix).
///
/// Thin wrapper over [`encode_request_into`]; hot paths should hold a
/// reusable buffer and call that directly.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(req, &mut out);
    out
}

/// Serializes a request payload (no length prefix), **appending** to
/// `out`. The buffer is deliberately not cleared: callers reuse one
/// allocation across frames (clearing between them) or append several
/// frames back to back (the runtime's coalesced writes).
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Open {
            resources,
            processes,
        } => {
            out.push(0x01);
            put_u16(out, *resources);
            put_u16(out, *processes);
        }
        Request::Batch { session, events } => {
            out.push(0x02);
            put_u64(out, session.0);
            put_u32(out, events.len() as u32);
            for ev in events {
                put_event(out, ev);
            }
        }
        Request::Close { session } => {
            out.push(0x03);
            put_u64(out, session.0);
        }
        Request::Stats => out.push(0x04),
        Request::Snapshot { session } => {
            out.push(0x05);
            put_u64(out, session.0);
        }
        Request::Restore { snapshot } => {
            out.push(0x06);
            put_u32(out, snapshot.len() as u32);
            out.extend_from_slice(snapshot);
        }
        Request::OpenAvoid {
            resources,
            processes,
            mode,
        } => {
            out.push(0x07);
            put_u16(out, *resources);
            put_u16(out, *processes);
            out.push(mode_code(*mode));
        }
        Request::SetPriority {
            session,
            p,
            priority,
        } => {
            out.push(0x08);
            put_u64(out, session.0);
            put_u16(out, p.0);
            out.push(priority.level());
        }
        Request::Acquire {
            session,
            p,
            q,
            wait,
        } => {
            out.push(0x09);
            put_u64(out, session.0);
            put_u16(out, p.0);
            put_u16(out, q.0);
            out.push(u8::from(*wait));
        }
        Request::BrokerRelease { session, p, q } => {
            out.push(0x0A);
            put_u64(out, session.0);
            put_u16(out, p.0);
            put_u16(out, q.0);
        }
        Request::GiveUpAck { session, p } => {
            out.push(0x0B);
            put_u64(out, session.0);
            put_u16(out, p.0);
        }
        Request::Sync { session } => {
            out.push(0x0C);
            put_u64(out, session.0);
        }
        Request::Subscribe {
            shard,
            from_seq,
            acked_seq,
        } => {
            out.push(0x0D);
            put_u16(out, *shard);
            put_u64(out, *from_seq);
            put_u64(out, *acked_seq);
        }
        Request::ReplicaStatus { shard } => {
            out.push(0x0E);
            put_u16(out, *shard);
        }
        Request::Promote { shard, epoch } => {
            out.push(0x0F);
            put_u16(out, *shard);
            put_u64(out, *epoch);
        }
    }
}

/// Serializes a response payload (no length prefix).
///
/// Thin wrapper over [`encode_response_into`]; hot paths should hold a
/// reusable buffer and call that directly.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(resp, &mut out);
    out
}

/// Serializes a response payload (no length prefix), **appending** to
/// `out` (see [`encode_request_into`] for the append rationale).
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Opened(id) => {
            out.push(0x81);
            put_u64(out, id.0);
        }
        Response::Batch(results) => {
            out.push(0x82);
            put_u32(out, results.len() as u32);
            for r in results {
                match r {
                    EventResult::Ack => out.push(0x20),
                    EventResult::Outcome(o) => {
                        out.push(0x21);
                        out.push(u8::from(o.deadlock));
                        put_u32(out, o.iterations);
                        put_u32(out, o.steps);
                    }
                    EventResult::Rejected(reason) => {
                        out.push(0x22);
                        out.push(reject_code(*reason));
                    }
                }
            }
        }
        Response::Closed => out.push(0x83),
        Response::Busy => out.push(0x84),
        Response::Stats {
            shards,
            frontend,
            cores,
        } => {
            out.push(0x85);
            put_u16(out, shards.len() as u16);
            for s in shards {
                put_u16(out, s.shard);
                put_u64(out, s.events);
                put_u64(out, s.probes);
                put_u64(out, s.cache_hits);
                put_u64(out, s.dense_reductions);
                put_u64(out, s.sparse_reductions);
                put_u64(out, s.live_edges);
                put_u64(out, s.density_permille);
                put_u64(out, s.broker_grants);
                put_u64(out, s.broker_deferrals);
                put_u64(out, s.broker_give_ups);
                put_u64(out, s.broker_livelocks);
                put_u64(out, s.broker_waiters);
                put_u64(out, s.pipeline_fsyncs);
                put_u64(out, s.pipeline_batches);
                put_u64(out, s.pipeline_batch_max);
                put_u64(out, s.pipeline_withheld_peak);
                put_u64(out, s.pipeline_commit_p50_us);
                put_u64(out, s.pipeline_commit_p99_us);
                put_u64(out, s.repl_lag_records);
                put_u64(out, s.follower_acked_seq);
                put_u64(out, s.epoch);
                put_u64(out, s.promotions);
            }
            match frontend {
                None => out.push(0),
                Some(f) => {
                    out.push(1);
                    for v in frontend_fields(f) {
                        put_u64(out, v);
                    }
                }
            }
            put_u16(out, cores.len() as u16);
            for c in cores {
                put_u16(out, c.core);
                put_u64(out, c.conns);
                put_u64(out, c.frames_in);
                put_u64(out, c.replies_out);
                put_u64(out, c.inline_ops);
                put_u64(out, c.cross_core_forwards);
                put_u64(out, c.migrations_in);
                put_u64(out, c.wakeups);
                put_u64(out, c.busy_poll_ticks);
            }
        }
        Response::Snapshot(bytes) => {
            out.push(0x87);
            put_u32(out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Response::Error(code) => {
            out.push(0x86);
            out.push(error_code(*code));
        }
        Response::Granted { cycles, probes } => {
            out.push(0x88);
            put_u64(out, *cycles);
            put_u32(out, *probes);
        }
        Response::Deferred { cycles, probes } => {
            out.push(0x89);
            put_u64(out, *cycles);
            put_u32(out, *probes);
        }
        Response::GiveUp {
            ask,
            cycles,
            probes,
        } => {
            out.push(0x8A);
            put_ask(out, ask);
            put_u64(out, *cycles);
            put_u32(out, *probes);
        }
        Response::Resolved {
            outcome,
            livelock_rounds,
            cycles,
            probes,
        } => {
            out.push(0x8B);
            put_release_outcome(out, outcome);
            put_u64(out, *livelock_rounds);
            put_u64(out, *cycles);
            put_u32(out, *probes);
        }
        Response::Ack => out.push(0x8C),
        Response::Rejected(reason) => {
            out.push(0x8D);
            out.push(reject_code(*reason));
        }
        Response::Synced { durable_lsn } => {
            out.push(0x8E);
            put_u64(out, *durable_lsn);
        }
        Response::WalSegment {
            shard,
            epoch,
            durable_seq,
            last_seq,
            records,
        } => {
            out.push(0x8F);
            put_u16(out, *shard);
            put_u64(out, *epoch);
            put_u64(out, *durable_seq);
            put_u64(out, *last_seq);
            put_u32(out, records.len() as u32);
            for (seq, rec_epoch, op_bytes) in records {
                put_u64(out, *seq);
                put_u64(out, *rec_epoch);
                put_u32(out, op_bytes.len() as u32);
                out.extend_from_slice(op_bytes);
            }
        }
        Response::ReplicaStatus(s) => {
            out.push(0x90);
            put_u16(out, s.shard);
            out.push(u8::from(s.primary));
            put_u64(out, s.epoch);
            put_u64(out, s.last_seq);
            put_u64(out, s.durable_seq);
            put_u64(out, s.acked_seq);
            put_u64(out, s.promotions);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<Event, WireError> {
    match r.u8()? {
        0x10 => Ok(Event::Request {
            p: ProcId(r.u16()?),
            q: ResId(r.u16()?),
        }),
        0x11 => Ok(Event::Grant {
            q: ResId(r.u16()?),
            p: ProcId(r.u16()?),
        }),
        0x12 => Ok(Event::Release {
            q: ResId(r.u16()?),
            p: ProcId(r.u16()?),
        }),
        0x13 => Ok(Event::Probe),
        0x14 => Ok(Event::WouldDeadlock {
            p: ProcId(r.u16()?),
            q: ResId(r.u16()?),
        }),
        tag => Err(WireError::UnknownTag { what: "event", tag }),
    }
}

fn read_reject(code: u8) -> Result<RejectReason, WireError> {
    Ok(match code {
        1 => RejectReason::UnknownId,
        2 => RejectReason::DuplicateEdge,
        3 => RejectReason::ResourceBusy,
        4 => RejectReason::NotOwner,
        5 => RejectReason::RequestWhileHolding,
        6 => RejectReason::NoSuchEdge,
        tag => {
            return Err(WireError::UnknownTag {
                what: "reject reason",
                tag,
            })
        }
    })
}

fn read_error_code(code: u8) -> Result<ErrorCode, WireError> {
    Ok(match code {
        1 => ErrorCode::UnknownSession,
        2 => ErrorCode::TooManySessions,
        3 => ErrorCode::BatchTooLarge,
        4 => ErrorCode::BadDimensions,
        5 => ErrorCode::Shutdown,
        6 => ErrorCode::BadRequest,
        7 => ErrorCode::InvalidSnapshot,
        8 => ErrorCode::SnapshotTooLarge,
        9 => ErrorCode::AvoidanceOff,
        10 => ErrorCode::AvoidanceOn,
        11 => ErrorCode::ReadOnlyReplica,
        12 => ErrorCode::EpochFenced,
        13 => ErrorCode::SubscribeGap,
        tag => {
            return Err(WireError::UnknownTag {
                what: "error code",
                tag,
            })
        }
    })
}

fn read_mode(code: u8) -> Result<AvoidanceMode, WireError> {
    Ok(match code {
        0 => AvoidanceMode::Off,
        1 => AvoidanceMode::FastPath,
        2 => AvoidanceMode::Metered,
        tag => {
            return Err(WireError::UnknownTag {
                what: "avoidance mode",
                tag,
            })
        }
    })
}

fn read_ask(r: &mut Reader<'_>) -> Result<GiveUpAsk, WireError> {
    let target = ProcId(r.u16()?);
    let reason = match r.u8()? {
        1 => GiveUpReason::RequestDeadlock,
        2 => GiveUpReason::RequesterSheds,
        3 => GiveUpReason::Livelock,
        tag => {
            return Err(WireError::UnknownTag {
                what: "give-up reason",
                tag,
            })
        }
    };
    let count = r.u16()?;
    if count as usize > MAX_BATCH {
        return Err(WireError::CountTooLarge {
            count: u32::from(count),
        });
    }
    let mut resources = Vec::with_capacity(count as usize);
    for _ in 0..count {
        resources.push(ResId(r.u16()?));
    }
    Ok(GiveUpAsk {
        target,
        resources,
        reason,
    })
}

fn read_release_outcome(r: &mut Reader<'_>) -> Result<ReleaseOutcome, WireError> {
    Ok(match r.u8()? {
        0 => ReleaseOutcome::NoWaiters,
        1 => {
            let process = ProcId(r.u16()?);
            let count = r.u16()?;
            if count as usize > MAX_BATCH {
                return Err(WireError::CountTooLarge {
                    count: u32::from(count),
                });
            }
            let mut bypassed_gdl = Vec::with_capacity(count as usize);
            for _ in 0..count {
                bypassed_gdl.push(ProcId(r.u16()?));
            }
            ReleaseOutcome::GrantedTo {
                process,
                bypassed_gdl,
            }
        }
        2 => ReleaseOutcome::Livelock {
            ask: match r.u8()? {
                0 => None,
                1 => Some(read_ask(r)?),
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "livelock ask flag",
                        tag,
                    })
                }
            },
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "release outcome",
                tag,
            })
        }
    })
}

/// Decodes a request payload (no length prefix).
///
/// # Errors
///
/// Returns a [`WireError`] on truncated, oversized-count, unknown-tag or
/// trailing-byte payloads.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        0x01 => Request::Open {
            resources: r.u16()?,
            processes: r.u16()?,
        },
        0x02 => {
            let session = SessionId(r.u64()?);
            let count = r.u32()?;
            if count as usize > MAX_BATCH {
                return Err(WireError::CountTooLarge { count });
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                events.push(read_event(&mut r)?);
            }
            Request::Batch { session, events }
        }
        0x03 => Request::Close {
            session: SessionId(r.u64()?),
        },
        0x04 => Request::Stats,
        0x05 => Request::Snapshot {
            session: SessionId(r.u64()?),
        },
        0x06 => {
            let len = r.u32()?;
            if len as usize > MAX_FRAME {
                return Err(WireError::Oversized {
                    len: u64::from(len),
                });
            }
            Request::Restore {
                snapshot: r.take(len as usize)?.to_vec(),
            }
        }
        0x07 => {
            let resources = r.u16()?;
            let processes = r.u16()?;
            let mode = read_mode(r.u8()?)?;
            Request::OpenAvoid {
                resources,
                processes,
                mode,
            }
        }
        0x08 => Request::SetPriority {
            session: SessionId(r.u64()?),
            p: ProcId(r.u16()?),
            priority: Priority::new(r.u8()?),
        },
        0x09 => {
            let session = SessionId(r.u64()?);
            let p = ProcId(r.u16()?);
            let q = ResId(r.u16()?);
            let wait = match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "acquire wait flag",
                        tag,
                    })
                }
            };
            Request::Acquire {
                session,
                p,
                q,
                wait,
            }
        }
        0x0A => Request::BrokerRelease {
            session: SessionId(r.u64()?),
            p: ProcId(r.u16()?),
            q: ResId(r.u16()?),
        },
        0x0B => Request::GiveUpAck {
            session: SessionId(r.u64()?),
            p: ProcId(r.u16()?),
        },
        0x0C => Request::Sync {
            session: SessionId(r.u64()?),
        },
        0x0D => Request::Subscribe {
            shard: r.u16()?,
            from_seq: r.u64()?,
            acked_seq: r.u64()?,
        },
        0x0E => Request::ReplicaStatus { shard: r.u16()? },
        0x0F => Request::Promote {
            shard: r.u16()?,
            epoch: r.u64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "request",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(req)
}

/// Decodes a response payload (no length prefix).
///
/// # Errors
///
/// Returns a [`WireError`] on truncated, oversized-count, unknown-tag or
/// trailing-byte payloads.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        0x81 => Response::Opened(SessionId(r.u64()?)),
        0x82 => {
            let count = r.u32()?;
            if count as usize > MAX_BATCH {
                return Err(WireError::CountTooLarge { count });
            }
            let mut results = Vec::with_capacity(count as usize);
            for _ in 0..count {
                results.push(match r.u8()? {
                    0x20 => EventResult::Ack,
                    0x21 => EventResult::Outcome(DetectOutcome {
                        deadlock: r.u8()? != 0,
                        iterations: r.u32()?,
                        steps: r.u32()?,
                    }),
                    0x22 => {
                        let code = r.u8()?;
                        EventResult::Rejected(read_reject(code)?)
                    }
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "event result",
                            tag,
                        })
                    }
                });
            }
            Response::Batch(results)
        }
        0x83 => Response::Closed,
        0x84 => Response::Busy,
        0x85 => {
            let count = r.u16()?;
            if count as usize > 1024 {
                return Err(WireError::CountTooLarge {
                    count: u32::from(count),
                });
            }
            let mut shards = Vec::with_capacity(count as usize);
            for _ in 0..count {
                shards.push(ShardStats {
                    shard: r.u16()?,
                    events: r.u64()?,
                    probes: r.u64()?,
                    cache_hits: r.u64()?,
                    dense_reductions: r.u64()?,
                    sparse_reductions: r.u64()?,
                    live_edges: r.u64()?,
                    density_permille: r.u64()?,
                    broker_grants: r.u64()?,
                    broker_deferrals: r.u64()?,
                    broker_give_ups: r.u64()?,
                    broker_livelocks: r.u64()?,
                    broker_waiters: r.u64()?,
                    pipeline_fsyncs: r.u64()?,
                    pipeline_batches: r.u64()?,
                    pipeline_batch_max: r.u64()?,
                    pipeline_withheld_peak: r.u64()?,
                    pipeline_commit_p50_us: r.u64()?,
                    pipeline_commit_p99_us: r.u64()?,
                    repl_lag_records: r.u64()?,
                    follower_acked_seq: r.u64()?,
                    epoch: r.u64()?,
                    promotions: r.u64()?,
                });
            }
            let frontend = match r.u8()? {
                0 => None,
                1 => Some(FrontendStats {
                    accepted: r.u64()?,
                    active: r.u64()?,
                    closed: r.u64()?,
                    reaped_idle: r.u64()?,
                    reaped_partial: r.u64()?,
                    desynced: r.u64()?,
                    frames_in: r.u64()?,
                    replies_out: r.u64()?,
                    busy_replies: r.u64()?,
                    bytes_in: r.u64()?,
                    bytes_out: r.u64()?,
                }),
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "frontend stats flag",
                        tag,
                    })
                }
            };
            let core_count = r.u16()?;
            if core_count as usize > 1024 {
                return Err(WireError::CountTooLarge {
                    count: u32::from(core_count),
                });
            }
            let mut cores = Vec::with_capacity(core_count as usize);
            for _ in 0..core_count {
                cores.push(CoreStats {
                    core: r.u16()?,
                    conns: r.u64()?,
                    frames_in: r.u64()?,
                    replies_out: r.u64()?,
                    inline_ops: r.u64()?,
                    cross_core_forwards: r.u64()?,
                    migrations_in: r.u64()?,
                    wakeups: r.u64()?,
                    busy_poll_ticks: r.u64()?,
                });
            }
            Response::Stats {
                shards,
                frontend,
                cores,
            }
        }
        0x86 => {
            let code = r.u8()?;
            Response::Error(read_error_code(code)?)
        }
        0x87 => {
            let len = r.u32()?;
            if len as usize > MAX_FRAME {
                return Err(WireError::Oversized {
                    len: u64::from(len),
                });
            }
            Response::Snapshot(r.take(len as usize)?.to_vec())
        }
        0x88 => Response::Granted {
            cycles: r.u64()?,
            probes: r.u32()?,
        },
        0x89 => Response::Deferred {
            cycles: r.u64()?,
            probes: r.u32()?,
        },
        0x8A => {
            let ask = read_ask(&mut r)?;
            Response::GiveUp {
                ask,
                cycles: r.u64()?,
                probes: r.u32()?,
            }
        }
        0x8B => {
            let outcome = read_release_outcome(&mut r)?;
            Response::Resolved {
                outcome,
                livelock_rounds: r.u64()?,
                cycles: r.u64()?,
                probes: r.u32()?,
            }
        }
        0x8C => Response::Ack,
        0x8D => {
            let code = r.u8()?;
            Response::Rejected(read_reject(code)?)
        }
        0x8E => Response::Synced {
            durable_lsn: r.u64()?,
        },
        0x8F => {
            let shard = r.u16()?;
            let epoch = r.u64()?;
            let durable_seq = r.u64()?;
            let last_seq = r.u64()?;
            let count = r.u32()?;
            if count as usize > MAX_BATCH {
                return Err(WireError::CountTooLarge { count });
            }
            let mut records = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let seq = r.u64()?;
                let rec_epoch = r.u64()?;
                let len = r.u32()?;
                if len as usize > MAX_FRAME {
                    return Err(WireError::Oversized {
                        len: u64::from(len),
                    });
                }
                records.push((seq, rec_epoch, r.take(len as usize)?.to_vec()));
            }
            Response::WalSegment {
                shard,
                epoch,
                durable_seq,
                last_seq,
                records,
            }
        }
        0x90 => {
            let shard = r.u16()?;
            let primary = match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "replica role flag",
                        tag,
                    })
                }
            };
            Response::ReplicaStatus(ReplStatus {
                shard,
                primary,
                epoch: r.u64()?,
                last_seq: r.u64()?,
                durable_seq: r.u64()?,
                acked_seq: r.u64()?,
                promotions: r.u64()?,
            })
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "response",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_FRAME`];
/// [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame, returning the payload.
///
/// Thin wrapper over [`read_frame_into`]; hot paths should hold a
/// reusable buffer and call that directly.
///
/// # Errors
///
/// [`WireError::Closed`] on clean end-of-stream before the prefix;
/// [`WireError::Truncated`] if the stream ends mid-frame;
/// [`WireError::Oversized`] if the prefix exceeds [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// Reads one length-prefixed frame into a caller-supplied reusable
/// buffer, which is cleared and resized to the payload length —
/// steady-state framing without a per-frame allocation.
///
/// # Errors
///
/// As for [`read_frame`].
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<(), WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len: len as u64 });
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Open {
            resources: 64,
            processes: 64,
        });
        roundtrip_request(Request::Batch {
            session: SessionId(42),
            events: vec![
                Event::Request {
                    p: ProcId(1),
                    q: ResId(2),
                },
                Event::Grant {
                    q: ResId(3),
                    p: ProcId(4),
                },
                Event::Release {
                    q: ResId(3),
                    p: ProcId(4),
                },
                Event::Probe,
                Event::WouldDeadlock {
                    p: ProcId(9),
                    q: ResId(8),
                },
            ],
        });
        roundtrip_request(Request::Close {
            session: SessionId(7),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Snapshot {
            session: SessionId(9),
        });
        roundtrip_request(Request::Restore {
            snapshot: vec![0xDE, 0xAD, 0xBE, 0xEF],
        });
        roundtrip_request(Request::Restore {
            snapshot: Vec::new(),
        });
        for mode in [
            AvoidanceMode::Off,
            AvoidanceMode::FastPath,
            AvoidanceMode::Metered,
        ] {
            roundtrip_request(Request::OpenAvoid {
                resources: 5,
                processes: 5,
                mode,
            });
        }
        roundtrip_request(Request::SetPriority {
            session: SessionId(3),
            p: ProcId(2),
            priority: Priority::new(7),
        });
        for wait in [false, true] {
            roundtrip_request(Request::Acquire {
                session: SessionId(4),
                p: ProcId(1),
                q: ResId(2),
                wait,
            });
        }
        roundtrip_request(Request::BrokerRelease {
            session: SessionId(4),
            p: ProcId(1),
            q: ResId(2),
        });
        roundtrip_request(Request::GiveUpAck {
            session: SessionId(4),
            p: ProcId(1),
        });
        roundtrip_request(Request::Sync {
            session: SessionId(13),
        });
        roundtrip_request(Request::Subscribe {
            shard: 3,
            from_seq: 1001,
            acked_seq: 990,
        });
        roundtrip_request(Request::ReplicaStatus { shard: 0 });
        roundtrip_request(Request::Promote { shard: 1, epoch: 4 });
    }

    #[test]
    fn replication_response_roundtrips() {
        roundtrip_response(Response::WalSegment {
            shard: 2,
            epoch: 3,
            durable_seq: 41,
            last_seq: 44,
            records: vec![
                (42, 3, vec![0xAA, 0xBB]),
                (43, 3, Vec::new()),
                (44, 3, vec![0x01]),
            ],
        });
        roundtrip_response(Response::WalSegment {
            shard: 0,
            epoch: 0,
            durable_seq: 0,
            last_seq: 0,
            records: Vec::new(),
        });
        roundtrip_response(Response::ReplicaStatus(ReplStatus {
            shard: 5,
            primary: false,
            epoch: 7,
            last_seq: 900,
            durable_seq: 896,
            acked_seq: 0,
            promotions: 2,
        }));
        roundtrip_response(Response::ReplicaStatus(ReplStatus {
            shard: 0,
            primary: true,
            epoch: 1,
            last_seq: 10,
            durable_seq: 10,
            acked_seq: 10,
            promotions: 1,
        }));
        roundtrip_response(Response::Error(ErrorCode::ReadOnlyReplica));
        roundtrip_response(Response::Error(ErrorCode::EpochFenced));
        roundtrip_response(Response::Error(ErrorCode::SubscribeGap));
    }

    #[test]
    fn hostile_wal_segment_count_rejected_before_allocation() {
        let mut bytes = vec![0x8F];
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&bytes),
            Err(WireError::CountTooLarge { count: u32::MAX })
        ));
    }

    #[test]
    fn broker_response_roundtrips() {
        roundtrip_response(Response::Granted {
            cycles: 104,
            probes: 0,
        });
        roundtrip_response(Response::Deferred {
            cycles: 1289,
            probes: 1,
        });
        roundtrip_response(Response::GiveUp {
            ask: GiveUpAsk {
                target: ProcId(1),
                resources: vec![ResId(1), ResId(3)],
                reason: GiveUpReason::RequestDeadlock,
            },
            cycles: 665,
            probes: 1,
        });
        for outcome in [
            ReleaseOutcome::NoWaiters,
            ReleaseOutcome::GrantedTo {
                process: ProcId(2),
                bypassed_gdl: vec![ProcId(1)],
            },
            ReleaseOutcome::Livelock { ask: None },
            ReleaseOutcome::Livelock {
                ask: Some(GiveUpAsk {
                    target: ProcId(4),
                    resources: vec![ResId(0)],
                    reason: GiveUpReason::Livelock,
                }),
            },
        ] {
            roundtrip_response(Response::Resolved {
                outcome,
                livelock_rounds: 2,
                cycles: 1030,
                probes: 3,
            });
        }
        roundtrip_response(Response::Ack);
        roundtrip_response(Response::Rejected(RejectReason::DuplicateEdge));
        roundtrip_response(Response::Error(ErrorCode::AvoidanceOff));
        roundtrip_response(Response::Error(ErrorCode::AvoidanceOn));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Opened(SessionId(11)));
        roundtrip_response(Response::Batch(vec![
            EventResult::Ack,
            EventResult::Outcome(DetectOutcome {
                deadlock: true,
                iterations: 3,
                steps: 4,
            }),
            EventResult::Rejected(RejectReason::ResourceBusy),
        ]));
        roundtrip_response(Response::Closed);
        roundtrip_response(Response::Busy);
        let rows = vec![ShardStats {
            shard: 2,
            events: 100,
            probes: 10,
            cache_hits: 5,
            dense_reductions: 6,
            sparse_reductions: 4,
            live_edges: 17,
            density_permille: 2,
            broker_grants: 21,
            broker_deferrals: 8,
            broker_give_ups: 3,
            broker_livelocks: 1,
            broker_waiters: 2,
            pipeline_fsyncs: 9,
            pipeline_batches: 7,
            pipeline_batch_max: 30,
            pipeline_withheld_peak: 12,
            pipeline_commit_p50_us: 180,
            pipeline_commit_p99_us: 900,
            repl_lag_records: 4,
            follower_acked_seq: 96,
            epoch: 2,
            promotions: 1,
        }];
        roundtrip_response(Response::Stats {
            shards: rows.clone(),
            frontend: None,
            cores: Vec::new(),
        });
        roundtrip_response(Response::Stats {
            shards: rows,
            frontend: Some(FrontendStats {
                accepted: 12,
                active: 3,
                closed: 9,
                reaped_idle: 1,
                reaped_partial: 2,
                desynced: 0,
                frames_in: 500,
                replies_out: 499,
                busy_replies: 7,
                bytes_in: 12_000,
                bytes_out: 9_000,
            }),
            cores: vec![
                CoreStats {
                    core: 0,
                    conns: 4,
                    frames_in: 250,
                    replies_out: 249,
                    inline_ops: 200,
                    cross_core_forwards: 49,
                    migrations_in: 2,
                    wakeups: 51,
                    busy_poll_ticks: 0,
                },
                CoreStats {
                    core: 1,
                    conns: 3,
                    frames_in: 250,
                    replies_out: 250,
                    inline_ops: 220,
                    cross_core_forwards: 30,
                    migrations_in: 1,
                    wakeups: 33,
                    busy_poll_ticks: 0,
                },
            ],
        });
        roundtrip_response(Response::Snapshot(vec![1, 2, 3]));
        roundtrip_response(Response::Synced { durable_lsn: 1952 });
        roundtrip_response(Response::Error(ErrorCode::BatchTooLarge));
        roundtrip_response(Response::Error(ErrorCode::InvalidSnapshot));
        roundtrip_response(Response::Error(ErrorCode::SnapshotTooLarge));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let full = encode_request(&Request::Batch {
            session: SessionId(1),
            events: vec![Event::Probe, Event::Probe],
        });
        for cut in 0..full.len() {
            match decode_request(&full[..cut]) {
                Err(WireError::Truncated) => {}
                other => panic!("prefix of len {cut} gave {other:?}"),
            }
        }
        let mut extended = full.clone();
        extended.push(0);
        assert!(matches!(
            decode_request(&extended),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn hostile_batch_count_rejected_before_allocation() {
        let mut bytes = vec![0x02];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&bytes),
            Err(WireError::CountTooLarge { count: u32::MAX })
        ));
    }

    #[test]
    fn oversized_frame_rejected_by_reader_and_writer() {
        let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0x7F];
        assert!(matches!(
            read_frame(&mut stream),
            Err(WireError::Oversized { .. })
        ));
        let big = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &big),
            Err(WireError::Oversized { .. })
        ));
        assert!(sink.is_empty(), "oversized frame must not be half-written");
    }

    #[test]
    fn into_encoders_append_and_match_the_wrappers() {
        let req = Request::Batch {
            session: SessionId(3),
            events: vec![Event::Probe],
        };
        let resp = Response::Busy;
        // Appending both messages to one buffer concatenates their
        // standalone encodings — the coalesced-write contract.
        let mut buf = Vec::new();
        encode_request_into(&req, &mut buf);
        let split = buf.len();
        encode_response_into(&resp, &mut buf);
        assert_eq!(&buf[..split], encode_request(&req).as_slice());
        assert_eq!(&buf[split..], encode_response(&resp).as_slice());

        // A reused read buffer shrinks to each frame exactly.
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&req)).unwrap();
        write_frame(&mut wire, &encode_response(&resp)).unwrap();
        let mut stream: &[u8] = &wire;
        let mut payload = vec![0xAA; 64];
        read_frame_into(&mut stream, &mut payload).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), req);
        read_frame_into(&mut stream, &mut payload).unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn frame_roundtrip_and_clean_close() {
        let payload = encode_request(&Request::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut stream: &[u8] = &buf;
        assert_eq!(read_frame(&mut stream).unwrap(), payload);
        assert!(matches!(read_frame(&mut stream), Err(WireError::Closed)));
    }
}

//! Shared-nothing thread-per-core runtime: the service's only server and
//! only shard executor, N pinned per-core loops that each own a set of
//! shards outright.
//!
//! The paper moves the deadlock unit next to the processors because
//! crossing a partition costs more than the check itself. The same holds
//! in software: each loop *owns* its shards (`ShardCore`s) and runs
//! their `DetectEngine`s, broker waiter tables and durability logging
//! **inline** on the loop thread. A request whose session lives on the
//! serving loop is decoded, executed and answered without any
//! cross-thread hand-off; there is no request queue and no poll tick of
//! any kind.
//!
//! Routing follows shard ownership (`session_id % shards`, shard `s`
//! owned by loop `s % loops`):
//!
//! * **Connection migration (fd hand-off)** — at `Open`/`OpenAvoid`/
//!   `Restore` the connection's *affinity* becomes the owning loop of
//!   the newly opened session. Once the connection is quiescent (no
//!   pending replies, no write backlog) it is handed over wholesale —
//!   socket, read buffer, counters — to that loop, making subsequent
//!   requests same-core. The quiescence requirement guarantees no
//!   in-flight completion can target the old loop.
//! * **Cross-core forwarding** — the minority of requests whose session
//!   lives elsewhere (multi-session connections, traffic racing ahead
//!   of migration) is forwarded over a per-core inbox; the owning loop
//!   executes inline and sends the reply back the same way. Every
//!   enqueue writes one byte to the receiving loop's self-pipe, so
//!   loops block in `poll(2)` with **no timeout** and are woken
//!   exactly when work arrives ([`CoreStats::busy_poll_ticks`] asserts
//!   it).
//! * **In-process calls** — a [`Client`] (from [`CoreRuntime::client`])
//!   builds the same `ExecJob` a wire request does and posts it to the
//!   owning loop's inbox, the path cross-core forwards take; the caller
//!   blocks on a one-shot channel. Wire and in-process requests share
//!   one waiter table and one group-commit scheduler per shard.
//!
//! Per connection: pipelined submission-order replies, in-band
//! [`Response::Busy`] past the pipeline cap, idle/slow-loris reaping,
//! broker blocked-grant push (grants cross loops as messages), and
//! WAL/checkpoint durability with bit-identical recovery.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deltaos_core::par;
use deltaos_core::{Priority, ProcId, ResId};
use deltaos_sim::Stats;

use crate::durable::{DurabilityConfig, RecoveryInfo};
use crate::proto::{
    decode_request, encode_response_into, AvoidanceMode, CoreStats, ErrorCode, Event, EventResult,
    FrontendStats, Request, Response, SessionId, ShardStats, MAX_FRAME,
};
use crate::shard::{BrokerCmd, ServiceError, ShardCore};
use crate::transport::{sys, Counters, FrameBuf, ReadOutcome, READ_CHUNK};

/// Runtime construction parameters — the service's one configuration:
/// loop topology, shard admission control, durability and the
/// per-connection front-end limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Pinned loop threads; `0` auto-sizes to the host CPUs (1..=8).
    pub loops: usize,
    /// Shards (deadlock units); `0` matches the resolved loop count.
    /// Sessions pin by `session_id % shards`, shard `s` lives on loop
    /// `s % loops`.
    pub shards: usize,
    /// Admission control: maximum live sessions per shard.
    pub max_sessions_per_shard: usize,
    /// Admission control: maximum events per batch.
    pub max_batch: usize,
    /// Admission control: maximum session dimension (rows or columns).
    pub max_dim: u16,
    /// Pin loop `i` to CPU `i` (a placement hint, like everywhere else).
    pub pin_cpus: bool,
    /// Durability: `Some` gives every shard a write-ahead log +
    /// checkpoint store under [`DurabilityConfig::dir`] and makes
    /// [`CoreRuntime::bind`] recover whatever a previous incarnation left
    /// there before the acceptor starts. `None` (the default) is the
    /// memory-only service.
    pub durability: Option<DurabilityConfig>,
    /// Start every shard as a read-only replica: mutations answer
    /// `ReadOnlyReplica` and state advances only through
    /// [`Client::repl_apply`] feeding it the primary's WAL records, until
    /// a `Promote` under a strictly larger epoch lands.
    pub replica: bool,
    /// Maximum in-flight requests per connection; overflow answers
    /// [`Response::Busy`] in-band.
    pub max_pipeline: usize,
    /// Write-backlog bytes at which the loop stops reading from a
    /// connection.
    pub max_write_buf: usize,
    /// Idle-connection reap timeout.
    pub idle_timeout: Duration,
    /// Partial-frame (slow-loris) reap deadline.
    pub partial_frame_deadline: Duration,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            loops: 1,
            shards: 0,
            max_sessions_per_shard: 1024,
            max_batch: crate::proto::MAX_BATCH,
            max_dim: 4096,
            pin_cpus: false,
            durability: None,
            replica: false,
            max_pipeline: 64,
            max_write_buf: 256 * 1024,
            idle_timeout: Duration::from_secs(60),
            partial_frame_deadline: Duration::from_secs(10),
        }
    }
}

impl CoreConfig {
    /// One pinned loop per host CPU (1..=8), shards matching.
    pub fn auto_sized() -> CoreConfig {
        CoreConfig {
            loops: par::host_cpus().clamp(1, 8),
            pin_cpus: true,
            ..CoreConfig::default()
        }
    }

    /// The loop-thread count `bind` will spawn.
    pub fn resolved_loops(&self) -> usize {
        if self.loops > 0 {
            self.loops
        } else {
            par::host_cpus().clamp(1, 8)
        }
    }

    /// The shard count `bind` will create.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            self.resolved_loops()
        }
    }
}

/// Per-loop monotonic counters, readable from any thread (the `Stats`
/// op snapshots all loops from whichever loop serves it).
#[derive(Default)]
struct LoopCounters {
    conns: AtomicU64,
    frames_in: AtomicU64,
    replies_out: AtomicU64,
    inline_ops: AtomicU64,
    cross_core_forwards: AtomicU64,
    migrations_in: AtomicU64,
    wakeups: AtomicU64,
    busy_poll_ticks: AtomicU64,
}

fn core_stats_snapshot(per_loop: &[LoopCounters]) -> Vec<CoreStats> {
    per_loop
        .iter()
        .enumerate()
        .map(|(i, lc)| CoreStats {
            core: i as u16,
            conns: lc.conns.load(Ordering::Relaxed),
            frames_in: lc.frames_in.load(Ordering::Relaxed),
            replies_out: lc.replies_out.load(Ordering::Relaxed),
            inline_ops: lc.inline_ops.load(Ordering::Relaxed),
            cross_core_forwards: lc.cross_core_forwards.load(Ordering::Relaxed),
            migrations_in: lc.migrations_in.load(Ordering::Relaxed),
            wakeups: lc.wakeups.load(Ordering::Relaxed),
            busy_poll_ticks: lc.busy_poll_ticks.load(Ordering::Relaxed),
        })
        .collect()
}

/// Where one submitted request's reply goes — the slot [`ShardCore`]
/// parks in its waiter table and the withheld queue holds until the
/// reply's LSN is durable.
#[derive(Clone)]
pub(crate) enum Ticket {
    /// A wire request: the loop housing the connection, the connection,
    /// and the request's per-connection sequence number.
    Conn { home: usize, conn: u64, seq: u64 },
    /// An in-process [`Client`] call blocked on its one-shot channel.
    Local(Sender<LocalReply>),
}

/// What an in-process caller's one-shot channel receives.
pub(crate) enum LocalReply {
    /// The answer to an [`ExecJob`].
    Done(Result<Response, ServiceError>),
    /// One loop's shard rows for a [`Client::stats`] fan-out.
    Rows(Vec<Stats>),
}

/// A session operation, executable on whichever loop owns the shard.
enum ExecJob {
    Open {
        session: SessionId,
        resources: u16,
        processes: u16,
    },
    OpenAvoid {
        session: SessionId,
        resources: u16,
        processes: u16,
        mode: AvoidanceMode,
    },
    Batch {
        session: SessionId,
        events: Vec<Event>,
    },
    Close {
        session: SessionId,
    },
    Snapshot {
        session: SessionId,
    },
    Restore {
        session: SessionId,
        snapshot: Vec<u8>,
    },
    Broker {
        session: SessionId,
        cmd: BrokerCmd,
    },
    /// Client-forced durability barrier: fsync the owning shard's WAL,
    /// release its withheld replies, answer the durable frontier. The
    /// session is a routing key only.
    Sync {
        session: SessionId,
    },
    /// Replication poll against the shard `session` routes to (the
    /// shard-addressed ops reuse session routing with
    /// `session = shard`, which pins to exactly that shard).
    Subscribe {
        session: SessionId,
        from_seq: u64,
        acked_seq: u64,
    },
    /// Replication posture read; `session = shard`, as above.
    ReplicaStatus {
        session: SessionId,
    },
    /// Failover promotion; `session = shard`, as above.
    Promote {
        session: SessionId,
        epoch: u64,
    },
    /// Follower ingest of the primary's WAL records; `session = shard`,
    /// as above. In-process only: the one op [`crate::ReplicaTailer`]
    /// needs that the wire does not carry.
    ReplApply {
        session: SessionId,
        records: Vec<(u64, u64, Vec<u8>)>,
    },
}

impl ExecJob {
    fn session(&self) -> SessionId {
        match self {
            ExecJob::Open { session, .. }
            | ExecJob::OpenAvoid { session, .. }
            | ExecJob::Batch { session, .. }
            | ExecJob::Close { session }
            | ExecJob::Snapshot { session }
            | ExecJob::Restore { session, .. }
            | ExecJob::Broker { session, .. }
            | ExecJob::Sync { session }
            | ExecJob::Subscribe { session, .. }
            | ExecJob::ReplicaStatus { session }
            | ExecJob::Promote { session, .. }
            | ExecJob::ReplApply { session, .. } => *session,
        }
    }

    /// Whether this job opens a session under a freshly allocated id.
    fn opens(&self) -> bool {
        matches!(
            self,
            ExecJob::Open { .. } | ExecJob::OpenAvoid { .. } | ExecJob::Restore { .. }
        )
    }
}

/// Inter-loop message. Every send is paired with one byte down the
/// receiving loop's self-pipe, so the receiver is always *woken*, never
/// polled for.
enum CoreMsg {
    /// A freshly accepted socket from the acceptor (round-robin).
    Accept(TcpStream),
    /// A quiescent connection handed over to its affine loop.
    Migrate(Box<CConn>),
    /// Run a session operation on the shard this loop owns and deliver
    /// the reply to `ticket`.
    Exec { ticket: Ticket, job: ExecJob },
    /// A completed reply for a request this loop houses.
    Done { conn: u64, seq: u64, resp: Response },
    /// Collect this loop's shard rows for a `Stats` request or a
    /// [`Client::stats`] call.
    StatsAsk { ticket: Ticket },
    /// The rows answering a [`CoreMsg::StatsAsk`].
    StatsReply {
        conn: u64,
        seq: u64,
        from: usize,
        rows: Vec<Stats>,
    },
}

/// What every loop and every in-process [`Client`] share: each loop's
/// inbox and wake pipe, the session-id source, and the admission limits
/// [`to_job`] checks.
struct Mesh {
    loops: usize,
    shards: usize,
    max_dim: u16,
    max_batch: usize,
    next_session: AtomicU64,
    inboxes: Vec<Sender<CoreMsg>>,
    wakes: Vec<UnixStream>,
}

impl Mesh {
    /// The shard `session` pins to.
    fn shard(&self, session: SessionId) -> usize {
        (session.0 % self.shards as u64) as usize
    }

    /// The loop owning `session`'s shard.
    fn owner(&self, session: SessionId) -> usize {
        self.shard(session) % self.loops
    }

    /// The routing key of a shard-addressed op: `session = shard` pins
    /// to exactly that shard.
    fn shard_key(&self, shard: u16) -> Result<SessionId, ServiceError> {
        if shard as usize >= self.shards {
            return Err(ServiceError::UnknownSession);
        }
        Ok(SessionId(shard as u64))
    }

    /// Sends `msg` to loop `target` and wakes it. `false` once that loop
    /// has exited (its inbox is gone) — only after stop, so the loops
    /// themselves ignore it.
    fn send(&self, target: usize, msg: CoreMsg) -> bool {
        if self.inboxes[target].send(msg).is_err() {
            return false;
        }
        let _ = (&self.wakes[target]).write(&[1]);
        true
    }
}

/// One submitted-but-unanswered request, in submission order.
enum Slot {
    /// Answer known (in-band error, `Busy`, or a delivered completion).
    Ready(Response),
    /// Executing on another loop, or parked in a broker waiter table.
    Wait,
    /// A `Stats` fan-out: per-loop shard rows, filled as replies arrive.
    Stats(Vec<Option<Vec<Stats>>>),
}

/// Per-connection state: framing, write coalescing and reap
/// bookkeeping, plus the pending FIFO of [`Slot`]s keyed by sequence
/// number — completions arrive as messages, never as polls.
struct CConn {
    id: u64,
    stream: TcpStream,
    rbuf: FrameBuf,
    wbuf: Vec<u8>,
    wpos: usize,
    next_seq: u64,
    pending: VecDeque<(u64, Slot)>,
    /// The loop this connection should live on: the owner of its most
    /// recently opened session. Migration happens at quiescence.
    affine: usize,
    last_activity: Instant,
    partial_since: Option<Instant>,
    peer_closed: bool,
    dead: bool,
}

impl CConn {
    fn new(id: u64, stream: TcpStream, home: usize, now: Instant) -> CConn {
        CConn {
            id,
            stream,
            rbuf: FrameBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            affine: home,
            last_activity: now,
            partial_since: None,
            peer_closed: false,
            dead: false,
        }
    }

    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Appends one length-prefixed response frame to the write buffer.
    fn push_response(&mut self, resp: &Response, counters: &Counters, lc: &LoopCounters) {
        let at = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0u8; 4]);
        encode_response_into(resp, &mut self.wbuf);
        let len = self.wbuf.len() - at - 4;
        debug_assert!(len <= MAX_FRAME, "server response exceeds MAX_FRAME");
        self.wbuf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        counters.replies_out.fetch_add(1, Ordering::Relaxed);
        lc.replies_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves completed replies, in submission order, into the write
    /// buffer — stopping at the first slot still waiting, which is what
    /// keeps pipelined responses positionally matched.
    fn pump_replies(&mut self, counters: &Counters, lc: &LoopCounters) {
        while let Some((_, Slot::Ready(_))) = self.pending.front() {
            let Some((_, Slot::Ready(resp))) = self.pending.pop_front() else {
                unreachable!("front was Ready");
            };
            self.push_response(&resp, counters, lc);
        }
    }

    /// Writes as much backlog as the socket accepts (coalesced replies).
    fn flush(&mut self, counters: &Counters) {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                    counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= READ_CHUNK {
            self.wbuf.copy_within(self.wpos.., 0);
            let keep = self.wbuf.len() - self.wpos;
            self.wbuf.truncate(keep);
            self.wpos = 0;
        }
        if progressed {
            self.last_activity = Instant::now();
        }
    }
}

/// Everything a loop owns besides its connections — split so borrow
/// scopes stay honest while one connection is being served.
struct LoopEnv {
    me: usize,
    mesh: Arc<Mesh>,
    cfg: CoreConfig,
    /// The shards this loop owns (`shard % loops == me`), run inline.
    shards: HashMap<usize, ShardCore>,
    /// Completed replies for locally housed requests, applied between
    /// borrow scopes (an inline broker command can complete requests of
    /// *other* connections on this same loop).
    deliveries: Vec<(u64, u64, Response)>,
    counters: Arc<Counters>,
    loop_counters: Arc<Vec<LoopCounters>>,
    /// Cross-core requests this loop has sent and not yet seen answered
    /// — the "work in flight" half of the busy-tick assertion.
    cross_outstanding: usize,
    /// Under `FsyncPolicy::Pipelined`: per owned shard, replies whose
    /// LSN is appended but not yet durable, in submission order as
    /// `(lsn, appended-at, ticket, result)` — the only group-commit
    /// scheduler. Released by [`LoopEnv::flush_shard`] when one fsync
    /// covers them.
    withheld: HashMap<usize, VecDeque<Withheld>>,
}

/// One reply waiting out its LSN: `(lsn, appended-at, ticket, result)`.
type Withheld = (u64, Instant, Ticket, Result<Response, ServiceError>);

impl LoopEnv {
    fn lc(&self) -> &LoopCounters {
        &self.loop_counters[self.me]
    }

    /// Parks a reply until `lsn` is durable on `shard`, or delivers it
    /// right away when the op carried no withhold LSN (non-pipelined
    /// policy, read-only op, broker re-attach).
    fn deliver_or_withhold(
        &mut self,
        shard: usize,
        lsn: Option<u64>,
        ticket: Ticket,
        result: Result<Response, ServiceError>,
    ) {
        match lsn {
            Some(lsn) => {
                let q = self.withheld.entry(shard).or_default();
                q.push_back((lsn, Instant::now(), ticket, result));
                let depth = q.len() as u64;
                if let Some(core) = self.shards.get_mut(&shard) {
                    core.pipeline.on_withheld(depth);
                }
            }
            None => self.deliver(ticket, result),
        }
    }

    /// Delivers the withheld replies `shard`'s release floor (durable
    /// frontier, clamped to the follower ack under `repl_ack`) now
    /// covers, in submission order.
    fn release_shard(&mut self, shard: usize) {
        let durable = match self.shards.get(&shard) {
            Some(core) => core.release_floor(),
            None => return,
        };
        let Some(q) = self.withheld.get_mut(&shard) else {
            return;
        };
        let now = Instant::now();
        let mut released = Vec::new();
        while q.front().is_some_and(|(lsn, _, _, _)| *lsn <= durable) {
            released.push(q.pop_front().expect("checked front"));
        }
        if released.is_empty() {
            return;
        }
        if let Some(core) = self.shards.get_mut(&shard) {
            for (_, since, _, _) in &released {
                core.pipeline.on_release(now.duration_since(*since));
            }
        }
        for (_, _, ticket, result) in released {
            self.deliver(ticket, result);
        }
    }

    /// Group-commit flush for one owned shard: one fsync makes every
    /// appended record durable, then the withheld replies drain.
    fn flush_shard(&mut self, shard: usize) {
        if let Some(core) = self.shards.get_mut(&shard) {
            let before = core.durable_lsn();
            let durable = core.sync_barrier();
            core.pipeline.on_flush(durable.saturating_sub(before));
        }
        self.release_shard(shard);
    }

    /// Trigger (a): flush as soon as the unsynced batch reaches the
    /// policy's `max_records`. Called after every executed job.
    fn maybe_flush(&mut self, shard: usize) {
        let Some(core) = self.shards.get(&shard) else {
            return;
        };
        let Some((max_records, _)) = core.pipeline_params() else {
            return;
        };
        if core.unsynced_records() >= max_records.max(1) as u64 {
            self.flush_shard(shard);
        }
    }

    /// Trigger (b): the poll-timeout arm of the commit deadline — the
    /// soonest `appended-at + deadline` across shards with withheld
    /// replies, as a poll timeout (ms, rounded up). `None` when nothing
    /// is withheld.
    fn withheld_timeout_ms(&self, now: Instant) -> Option<i32> {
        let mut best: Option<Duration> = None;
        for (shard, q) in &self.withheld {
            let Some((_, since, _, _)) = q.front() else {
                continue;
            };
            let Some((_, deadline)) = self.shards.get(shard).and_then(|c| c.pipeline_params())
            else {
                continue;
            };
            let left = (*since + deadline).saturating_duration_since(now);
            best = Some(best.map_or(left, |b| b.min(left)));
        }
        // +1 rounds up so a sub-millisecond remainder still blocks.
        best.map(|d| (d.as_millis().min(1000) as i32) + 1)
    }

    /// Trigger (b), firing half: flush every shard whose oldest withheld
    /// reply has aged past the commit deadline.
    fn flush_expired(&mut self, now: Instant) {
        let expired: Vec<usize> = self
            .withheld
            .iter()
            .filter_map(|(shard, q)| {
                let (_, since, _, _) = q.front()?;
                let (_, deadline) = self.shards.get(shard)?.pipeline_params()?;
                (now.saturating_duration_since(*since) >= deadline).then_some(*shard)
            })
            .collect();
        for shard in expired {
            self.flush_shard(shard);
        }
    }

    /// Trigger (c): the loop is about to block with nothing left to do —
    /// sync every non-empty batch now instead of sitting on replies
    /// until the deadline. This is the common-case batch boundary: all
    /// frames read in one poll cycle share one fsync.
    fn flush_idle(&mut self) {
        let pending: Vec<usize> = self
            .withheld
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(shard, _)| *shard)
            .collect();
        for shard in pending {
            self.flush_shard(shard);
        }
    }

    /// Routes one completed reply to the loop housing `ticket`, or to
    /// the in-process caller's channel.
    fn deliver(&mut self, ticket: Ticket, result: Result<Response, ServiceError>) {
        match ticket {
            Ticket::Conn { home, conn, seq } => {
                let resp = result.unwrap_or_else(error_response);
                if home == self.me {
                    self.deliveries.push((conn, seq, resp));
                } else {
                    self.mesh.send(home, CoreMsg::Done { conn, seq, resp });
                }
            }
            Ticket::Local(tx) => {
                let _ = tx.send(LocalReply::Done(result));
            }
        }
    }

    /// Executes a session operation on the owned shard, delivering the
    /// primary reply plus any broker wakes/failures it caused.
    fn run_job(&mut self, ticket: Ticket, job: ExecJob) {
        let shard = self.mesh.shard(job.session());
        debug_assert_eq!(shard % self.mesh.loops, self.me, "job routed to non-owner");
        let Some(core) = self.shards.get_mut(&shard) else {
            self.deliver(ticket, Err(ServiceError::Shutdown));
            return;
        };
        match job {
            ExecJob::Open {
                session,
                resources,
                processes,
            } => {
                let result = core
                    .open(session, resources, processes)
                    .map(Response::Opened);
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, ticket, result);
            }
            ExecJob::OpenAvoid {
                session,
                resources,
                processes,
                mode,
            } => {
                let result = core
                    .open_avoid(session, resources, processes, mode)
                    .map(Response::Opened);
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, ticket, result);
            }
            ExecJob::Batch { session, events } => {
                let result = core.batch(session, &events).map(Response::Batch);
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, ticket, result);
            }
            ExecJob::Close { session } => {
                let (result, dead) = core.close(session);
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, ticket, result.map(|()| Response::Closed));
                // Waiters parked on the closed broker session can never
                // be granted — fail them instead of leaking hangs. The
                // errors ride the close's LSN like any reply it caused.
                for t in dead {
                    self.deliver_or_withhold(shard, lsn, t, Err(ServiceError::UnknownSession));
                }
            }
            ExecJob::Snapshot { session } => {
                let result = core.snapshot_blob(session).map(Response::Snapshot);
                self.deliver(ticket, result);
            }
            ExecJob::Restore { session, snapshot } => {
                let result = core.restore(session, &snapshot).map(Response::Opened);
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, ticket, result);
            }
            ExecJob::Broker { session, cmd } => {
                let out = core.broker(session, cmd, ticket);
                // The command's reply and the waiters it woke all ride
                // the command's LSN (re-attaches didn't log: deliver).
                let lsn = core.take_withhold_lsn();
                if let Some((t, result)) = out.reply {
                    self.deliver_or_withhold(shard, lsn, t, result);
                }
                for t in out.woken {
                    self.deliver_or_withhold(
                        shard,
                        lsn,
                        t,
                        Ok(Response::Granted {
                            cycles: 0,
                            probes: 0,
                        }),
                    );
                }
            }
            ExecJob::Sync { .. } => {
                // Client-forced barrier: flush this shard (releasing
                // every withheld reply), then answer the frontier. The
                // withheld replies all carry smaller sequence numbers on
                // their connections, so they pump out first.
                let before = core.durable_lsn();
                let durable = core.sync_barrier();
                core.pipeline.on_flush(durable.saturating_sub(before));
                self.release_shard(shard);
                self.deliver(
                    ticket,
                    Ok(Response::Synced {
                        durable_lsn: durable,
                    }),
                );
            }
            ExecJob::Subscribe {
                from_seq,
                acked_seq,
                ..
            } => {
                // Followers pull durable records only: flush first so a
                // fresh append does not stall replication until the
                // commit deadline. The poll's piggybacked ack may also
                // advance the repl_ack release floor — drain after.
                self.flush_shard(shard);
                let result = self
                    .shards
                    .get_mut(&shard)
                    .expect("owned shard")
                    .subscribe(from_seq, acked_seq);
                self.release_shard(shard);
                self.deliver(ticket, result);
            }
            ExecJob::ReplicaStatus { .. } => {
                let result = Ok(Response::ReplicaStatus(core.replica_status()));
                self.deliver(ticket, result);
            }
            ExecJob::Promote { epoch, .. } => {
                let result = core.promote(epoch);
                self.deliver(ticket, result);
            }
            ExecJob::ReplApply { records, .. } => {
                let result = core.repl_apply(&records);
                self.deliver(ticket, result);
            }
        }
        // Compaction once enough records accumulated; the checkpoint's
        // WAL sync advances the release floor on its own.
        let core = self.shards.get_mut(&shard).expect("owned shard");
        if core.maybe_checkpoint(false) {
            self.release_shard(shard);
        }
        // Trigger (a): the batch may have just reached `max_records`.
        self.maybe_flush(shard);
    }

    /// This loop's shard rows, shard-id order.
    fn own_rows(&self) -> Vec<Stats> {
        let mut ids: Vec<usize> = self.shards.keys().copied().collect();
        ids.sort_unstable();
        ids.iter().map(|s| self.shards[s].report()).collect()
    }

    /// Assembles the wire `Stats` response once every loop has reported.
    fn finish_stats(&self, rows: Vec<Option<Vec<Stats>>>) -> Response {
        let mut flat: Vec<Stats> = rows.into_iter().flatten().flatten().collect();
        flat.sort_by_key(|s| s.counter("service.shard_id"));
        Response::Stats {
            shards: stats_rows(&flat),
            frontend: Some(self.counters.snapshot()),
            cores: core_stats_snapshot(&self.loop_counters),
        }
    }
}

/// Maps a synchronous service error to its wire response.
fn error_response(e: ServiceError) -> Response {
    Response::Error(e.into())
}

/// Maps per-shard [`Stats`] snapshots to the wire's [`ShardStats`] rows.
fn stats_rows(per_shard: &[Stats]) -> Vec<ShardStats> {
    per_shard
        .iter()
        .map(|s| ShardStats {
            shard: s.counter("service.shard_id") as u16,
            events: s.counter("service.events"),
            probes: s.counter("service.probes"),
            cache_hits: s.counter("service.cache_hits"),
            dense_reductions: s.counter("service.dense_reductions"),
            sparse_reductions: s.counter("service.sparse_reductions"),
            live_edges: s.counter("service.live_edges"),
            density_permille: s.counter("service.density_permille"),
            broker_grants: s.counter("service.broker_grants"),
            broker_deferrals: s.counter("service.broker_deferrals"),
            broker_give_ups: s.counter("service.broker_give_ups"),
            broker_livelocks: s.counter("service.broker_livelocks"),
            broker_waiters: s.counter("service.broker_waiters"),
            pipeline_fsyncs: s.counter("store.fsyncs"),
            pipeline_batches: s.counter("store.pipeline_batches"),
            pipeline_batch_max: s.counter("store.pipeline_batch_max"),
            pipeline_withheld_peak: s.counter("store.pipeline_withheld_peak"),
            pipeline_commit_p50_us: s.counter("store.pipeline_commit_p50_us"),
            pipeline_commit_p99_us: s.counter("store.pipeline_commit_p99_us"),
            repl_lag_records: s.counter("store.repl_lag_records"),
            follower_acked_seq: s.counter("store.follower_acked_seq"),
            epoch: s.counter("store.epoch"),
            promotions: s.counter("store.promotions"),
        })
        .collect()
}

/// Fills waiting slots from the delivery buffer. Deliveries for
/// connections that died in the meantime are discarded — the slot died
/// with the connection, exactly as a dropped reply channel would have.
fn apply_deliveries(env: &mut LoopEnv, conns: &mut [CConn]) {
    for (conn_id, seq, resp) in env.deliveries.drain(..) {
        let Some(c) = conns.iter_mut().find(|c| c.id == conn_id) else {
            continue;
        };
        if let Some((_, slot)) = c.pending.iter_mut().find(|(s, _)| *s == seq) {
            *slot = Slot::Ready(resp);
        }
    }
}

/// Consumes every complete frame in `c`'s read buffer: decode in place,
/// execute inline when this loop owns the session's shard, forward
/// otherwise. In-band `BadRequest` for undecodable frames, `Busy` past
/// the pipeline cap, and a dropped connection on lost framing.
fn process_conn_frames(env: &mut LoopEnv, c: &mut CConn) {
    loop {
        match c.rbuf.next_frame() {
            Err(_) => {
                env.counters.desynced.fetch_add(1, Ordering::Relaxed);
                c.dead = true;
                return;
            }
            Ok(None) => break,
            Ok(Some(range)) => {
                env.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                env.lc().frames_in.fetch_add(1, Ordering::Relaxed);
                let seq = c.next_seq;
                c.next_seq += 1;
                let over_depth = c.pending.len() >= env.cfg.max_pipeline;
                let ticket = Ticket::Conn {
                    home: env.me,
                    conn: c.id,
                    seq,
                };
                let slot = match decode_request(c.rbuf.slice(range)) {
                    Err(_) => Slot::Ready(Response::Error(ErrorCode::BadRequest)),
                    Ok(_) if over_depth => {
                        env.counters.busy_replies.fetch_add(1, Ordering::Relaxed);
                        Slot::Ready(Response::Busy)
                    }
                    Ok(Request::Stats) => {
                        let loops = env.mesh.loops;
                        if loops == 1 {
                            let rows = vec![Some(env.own_rows())];
                            Slot::Ready(env.finish_stats(rows))
                        } else {
                            let mut rows = vec![None; loops];
                            rows[env.me] = Some(env.own_rows());
                            for target in 0..loops {
                                if target != env.me {
                                    let ticket = ticket.clone();
                                    env.mesh.send(target, CoreMsg::StatsAsk { ticket });
                                    env.cross_outstanding += 1;
                                }
                            }
                            Slot::Stats(rows)
                        }
                    }
                    Ok(req) => match to_job(&env.mesh, req) {
                        Err(e) => Slot::Ready(error_response(e)),
                        Ok(job) => {
                            let owner = env.mesh.owner(job.session());
                            if job.opens() {
                                // Follow the newest session: migrate there
                                // once quiescent.
                                c.affine = owner;
                            }
                            if owner == env.me {
                                env.lc().inline_ops.fetch_add(1, Ordering::Relaxed);
                                env.run_job(ticket, job);
                            } else {
                                env.lc().cross_core_forwards.fetch_add(1, Ordering::Relaxed);
                                env.cross_outstanding += 1;
                                env.mesh.send(owner, CoreMsg::Exec { ticket, job });
                            }
                            Slot::Wait
                        }
                    },
                };
                c.pending.push_back((seq, slot));
            }
        }
    }
    c.rbuf.compact();
    c.partial_since = if c.rbuf.has_partial() {
        c.partial_since.or(Some(Instant::now()))
    } else {
        None
    };
}

/// Runs a request's admission checks (dimensions, batch cap, shard
/// range) and binds it to an [`ExecJob`] — for wire frames and
/// in-process [`Client`] calls alike. Opens allocate the session id
/// here, on the submitting side.
fn to_job(mesh: &Mesh, req: Request) -> Result<ExecJob, ServiceError> {
    let dims_ok = |r: u16, p: u16| r != 0 && p != 0 && r <= mesh.max_dim && p <= mesh.max_dim;
    let alloc = || SessionId(mesh.next_session.fetch_add(1, Ordering::Relaxed));
    match req {
        Request::Open {
            resources,
            processes,
        } => {
            if !dims_ok(resources, processes) {
                return Err(ServiceError::BadDimensions);
            }
            Ok(ExecJob::Open {
                session: alloc(),
                resources,
                processes,
            })
        }
        Request::OpenAvoid {
            resources,
            processes,
            mode,
        } => {
            if !dims_ok(resources, processes) {
                return Err(ServiceError::BadDimensions);
            }
            Ok(ExecJob::OpenAvoid {
                session: alloc(),
                resources,
                processes,
                mode,
            })
        }
        Request::Batch { session, events } => {
            if events.len() > mesh.max_batch {
                return Err(ServiceError::BatchTooLarge);
            }
            Ok(ExecJob::Batch { session, events })
        }
        Request::Close { session } => Ok(ExecJob::Close { session }),
        Request::Snapshot { session } => Ok(ExecJob::Snapshot { session }),
        Request::Restore { snapshot } => Ok(ExecJob::Restore {
            session: alloc(),
            snapshot,
        }),
        Request::SetPriority {
            session,
            p,
            priority,
        } => Ok(ExecJob::Broker {
            session,
            cmd: BrokerCmd::SetPriority { p, priority },
        }),
        Request::Acquire {
            session,
            p,
            q,
            wait,
        } => Ok(ExecJob::Broker {
            session,
            cmd: BrokerCmd::Acquire { p, q, wait },
        }),
        Request::BrokerRelease { session, p, q } => Ok(ExecJob::Broker {
            session,
            cmd: BrokerCmd::Release { p, q },
        }),
        Request::GiveUpAck { session, p } => Ok(ExecJob::Broker {
            session,
            cmd: BrokerCmd::GiveUpAck { p },
        }),
        Request::Sync { session } => Ok(ExecJob::Sync { session }),
        Request::Subscribe {
            shard,
            from_seq,
            acked_seq,
        } => Ok(ExecJob::Subscribe {
            session: mesh.shard_key(shard)?,
            from_seq,
            acked_seq,
        }),
        Request::ReplicaStatus { shard } => Ok(ExecJob::ReplicaStatus {
            session: mesh.shard_key(shard)?,
        }),
        Request::Promote { shard, epoch } => Ok(ExecJob::Promote {
            session: mesh.shard_key(shard)?,
            epoch,
        }),
        // Handled by the caller before `to_job` (it fans out, it does
        // not execute on a single shard).
        Request::Stats => unreachable!("Stats is routed before to_job"),
    }
}

/// Smallest remaining time until any reap deadline, as a poll timeout.
/// This is the *only* source of finite poll timeouts: completions are
/// fd-signalled (self-pipe), so there is nothing to tick for.
fn reap_timeout_ms(conns: &[CConn], cfg: &CoreConfig, now: Instant) -> i32 {
    let mut best: Option<Duration> = None;
    let mut consider = |d: Duration| {
        best = Some(best.map_or(d, |b| b.min(d)));
    };
    for c in conns {
        if c.pending.is_empty() {
            consider(cfg.idle_timeout.saturating_sub(now - c.last_activity));
        }
        if let Some(t) = c.partial_since {
            consider(cfg.partial_frame_deadline.saturating_sub(now - t));
        }
    }
    match best {
        None => -1,
        // +1 rounds up so we never spin on a sub-millisecond remainder.
        Some(d) => (d.as_millis().min(1000) as i32) + 1,
    }
}

struct CoreCtx {
    me: usize,
    cfg: CoreConfig,
    mesh: Arc<Mesh>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    loop_counters: Arc<Vec<LoopCounters>>,
    inbox: Receiver<CoreMsg>,
    wake_rx: UnixStream,
    ready_tx: Sender<(u64, Vec<RecoveryInfo>)>,
    go_rx: Receiver<()>,
}

/// One loop's life: build and recover its shards, report ready, serve
/// until stopped, then drain and checkpoint. Returns the owned shards'
/// final counters.
fn run_core_loop(ctx: CoreCtx) -> Vec<Stats> {
    if ctx.cfg.pin_cpus {
        par::pin_current_thread(ctx.me);
    }
    // Build (and, with durability, recover) the owned shards before the
    // acceptor starts: no request may observe a half-recovered service.
    let mut shards: HashMap<usize, ShardCore> = HashMap::new();
    for shard in (ctx.me..ctx.mesh.shards).step_by(ctx.mesh.loops) {
        shards.insert(
            shard,
            ShardCore::new(
                shard,
                ctx.cfg.max_sessions_per_shard,
                ctx.cfg.max_dim,
                ctx.cfg.durability.as_ref(),
                ctx.cfg.replica,
            ),
        );
    }
    let mut max_next = 0u64;
    let mut infos = Vec::new();
    for core in shards.values() {
        if let Some(info) = core.recovery_info() {
            max_next = max_next.max(info.next_session);
            infos.push(info);
        }
    }
    let _ = ctx.ready_tx.send((max_next, infos));
    // Report once, then let go: a loop that dies in recovery shows up in
    // `bind` as a missing report instead of a sender held forever.
    drop(ctx.ready_tx);
    // Wait for bind to seed the shared session counter from every
    // loop's recovery high-water mark.
    if ctx.go_rx.recv().is_err() {
        return Vec::new();
    }

    let mut env = LoopEnv {
        me: ctx.me,
        mesh: ctx.mesh,
        cfg: ctx.cfg,
        shards,
        deliveries: Vec::new(),
        counters: ctx.counters,
        loop_counters: ctx.loop_counters,
        cross_outstanding: 0,
        withheld: HashMap::new(),
    };
    let mut conns: Vec<CConn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut wake_rx = ctx.wake_rx;
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        // Drain the inbox: adopted connections, forwarded work, and
        // completions from other loops.
        while let Ok(msg) = ctx.inbox.try_recv() {
            match msg {
                CoreMsg::Accept(stream) => {
                    let id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
                    conns.push(CConn::new(id, stream, env.me, now));
                }
                CoreMsg::Migrate(c) => {
                    env.lc().migrations_in.fetch_add(1, Ordering::Relaxed);
                    conns.push(*c);
                }
                CoreMsg::Exec { ticket, job } => env.run_job(ticket, job),
                CoreMsg::Done { conn, seq, resp } => {
                    env.cross_outstanding = env.cross_outstanding.saturating_sub(1);
                    env.deliveries.push((conn, seq, resp));
                }
                CoreMsg::StatsAsk { ticket } => {
                    let rows = env.own_rows();
                    match ticket {
                        Ticket::Conn { home, conn, seq } => {
                            let reply = CoreMsg::StatsReply {
                                conn,
                                seq,
                                from: env.me,
                                rows,
                            };
                            env.mesh.send(home, reply);
                        }
                        Ticket::Local(tx) => {
                            let _ = tx.send(LocalReply::Rows(rows));
                        }
                    }
                }
                CoreMsg::StatsReply {
                    conn,
                    seq,
                    from,
                    rows,
                } => {
                    env.cross_outstanding = env.cross_outstanding.saturating_sub(1);
                    if let Some(c) = conns.iter_mut().find(|c| c.id == conn) {
                        if let Some((_, slot)) = c.pending.iter_mut().find(|(s, _)| *s == seq) {
                            if let Slot::Stats(got) = slot {
                                got[from] = Some(rows);
                                if got.iter().all(Option::is_some) {
                                    let rows = std::mem::take(got);
                                    *slot = Slot::Ready(env.finish_stats(rows));
                                }
                            }
                        }
                    }
                }
            }
        }
        apply_deliveries(&mut env, &mut conns);
        // Complete what finished, then flush.
        for c in conns.iter_mut() {
            c.pump_replies(&env.counters, &env.loop_counters[env.me]);
            if c.backlog() > 0 {
                c.flush(&env.counters);
            }
        }
        // Hand quiescent connections to their affine loop: with no
        // pending replies and no backlog, nothing in flight can target
        // this loop, so the fd (and every buffer) moves wholesale.
        let mut i = 0;
        while i < conns.len() {
            let c = &conns[i];
            if c.affine != env.me
                && !c.dead
                && !c.peer_closed
                && c.pending.is_empty()
                && c.backlog() == 0
            {
                let c = conns.swap_remove(i);
                let target = c.affine;
                env.mesh.send(target, CoreMsg::Migrate(Box::new(c)));
            } else {
                i += 1;
            }
        }
        // Reap and drop in one pass.
        conns.retain(|c| {
            let drained = c.pending.is_empty() && c.backlog() == 0;
            let mut reap = c.dead || (c.peer_closed && drained);
            if !reap {
                if let Some(t) = c.partial_since {
                    if now - t >= env.cfg.partial_frame_deadline {
                        env.counters.reaped_partial.fetch_add(1, Ordering::Relaxed);
                        reap = true;
                    }
                }
            }
            if !reap && c.pending.is_empty() && now - c.last_activity >= env.cfg.idle_timeout {
                env.counters.reaped_idle.fetch_add(1, Ordering::Relaxed);
                reap = true;
            }
            if reap {
                env.counters.closed.fetch_add(1, Ordering::Relaxed);
            }
            !reap
        });
        env.lc().conns.store(conns.len() as u64, Ordering::Relaxed);
        // Register interest: the self-pipe, then one slot per conn.
        fds.clear();
        fds.push(sys::PollFd {
            fd: wake_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for c in &conns {
            let mut events = 0;
            if !c.peer_closed && c.backlog() < env.cfg.max_write_buf {
                events |= sys::POLLIN;
            }
            if c.backlog() > 0 {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        // Trigger (c): about to block with every readable frame already
        // processed — the batch boundary. One fsync covers everything
        // appended this poll cycle, and the withheld replies it releases
        // pump out below before the next poll... unless new deliveries
        // for *other* loops' requests still ride the self-pipe, which
        // poll then reports instantly.
        env.flush_idle();
        apply_deliveries(&mut env, &mut conns);
        for c in conns.iter_mut() {
            c.pump_replies(&env.counters, &env.loop_counters[env.me]);
            if c.backlog() > 0 {
                c.flush(&env.counters);
            }
        }
        // No degraded tick: completions arrive as self-pipe wakeups, so
        // the only finite timeouts are reap deadlines — and, under the
        // pipelined policy, the commit deadline of withheld replies
        // (trigger (b), a backstop: the idle flush above usually empties
        // the batch first).
        let timeout = reap_timeout_ms(&conns, &env.cfg, now);
        let commit_timeout = env.withheld_timeout_ms(now);
        let timeout = match commit_timeout {
            Some(t) if timeout < 0 => t,
            Some(t) => timeout.min(t),
            None => timeout,
        };
        let Ok(ready) = sys::poll_fds(&mut fds, timeout) else {
            break;
        };
        if ready == 0 && env.cross_outstanding > 0 && commit_timeout.is_none() {
            // A timeout fired while cross-core work was in flight; in
            // steady state this never happens (the wake pipe is an fd).
            // A commit-deadline timeout is work, not a degraded tick.
            env.lc().busy_poll_ticks.fetch_add(1, Ordering::Relaxed);
        }
        env.flush_expired(Instant::now());
        // Drain wake bytes (coalesced; one byte per notification).
        if fds[0].revents != 0 {
            env.lc().wakeups.fetch_add(1, Ordering::Relaxed);
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        // Serve readable/writable sockets.
        for (i, c) in conns.iter_mut().enumerate() {
            let re = fds[1 + i].revents;
            if re == 0 {
                continue;
            }
            if re & sys::POLLNVAL != 0 {
                c.dead = true;
                continue;
            }
            if re & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                // One read per event unless it fills the buffer's spare
                // space; an EOF behind the data shows on the next poll.
                match c.rbuf.fill_from(&mut c.stream) {
                    ReadOutcome::Progress(n, eof) => {
                        if n > 0 {
                            env.counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                            c.last_activity = Instant::now();
                            process_conn_frames(&mut env, c);
                        }
                        if eof {
                            c.peer_closed = true;
                        }
                        if n == 0 && !eof && re & sys::POLLERR != 0 {
                            c.dead = true;
                        }
                    }
                    ReadOutcome::Broken => c.dead = true,
                }
            }
        }
        // Eager turnaround: inline executions (the common, same-core
        // case) completed during the reads above — answer them in the
        // same iteration, no hand-off, no tick.
        apply_deliveries(&mut env, &mut conns);
        for c in conns.iter_mut() {
            c.pump_replies(&env.counters, &env.loop_counters[env.me]);
            if c.backlog() > 0 {
                c.flush(&env.counters);
            }
        }
    }
    // Teardown: drain the commit pipeline (best-effort delivery of
    // withheld replies), run shutdown durability per owned shard (final
    // checkpoint or WAL sync), then drop the connections with the loop.
    env.flush_idle();
    // Replies still parked after the flush are gated on a follower ack
    // that will never arrive (the runtime is stopping); locally durable
    // is the most a dying process can promise, so deliver.
    let gated: Vec<(usize, Withheld)> = env
        .withheld
        .iter_mut()
        .flat_map(|(shard, q)| {
            let shard = *shard;
            q.drain(..).map(move |w| (shard, w))
        })
        .collect();
    let now = Instant::now();
    for (shard, (_, since, ticket, result)) in gated {
        if let Some(core) = env.shards.get_mut(&shard) {
            core.pipeline.on_release(now.duration_since(since));
        }
        env.deliver(ticket, result);
    }
    apply_deliveries(&mut env, &mut conns);
    for c in conns.iter_mut() {
        c.pump_replies(&env.counters, &env.loop_counters[env.me]);
        if c.backlog() > 0 {
            c.flush(&env.counters);
        }
    }
    for core in env.shards.values_mut() {
        core.finish();
    }
    let n = conns.len() as u64;
    env.counters.closed.fetch_add(n, Ordering::Relaxed);
    env.own_rows()
}

/// Global connection-id source — ids must be unique across loops
/// because connections migrate between them.
static NEXT_CONN: AtomicU64 = AtomicU64::new(0);

/// A running thread-per-core runtime: acceptor + N pinned loops, each
/// owning its shards outright — the shards *are* the loops. Serves the
/// wire protocol on its bound address and in-process calls through
/// [`CoreRuntime::client`] handles.
///
/// Construction: [`CoreRuntime::bind`]. [`CoreRuntime::stop`] (or
/// dropping the handle) stops the acceptor and joins every loop (open
/// connections drop; durable shards run their shutdown checkpoint/sync
/// first).
pub struct CoreRuntime {
    addr: SocketAddr,
    mesh: Arc<Mesh>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    loop_counters: Arc<Vec<LoopCounters>>,
    recovery: Vec<RecoveryInfo>,
    accept_thread: Option<JoinHandle<()>>,
    loop_threads: Vec<JoinHandle<Vec<Stats>>>,
}

impl CoreRuntime {
    /// Binds `addr` (port 0 for ephemeral), builds and recovers every
    /// shard on its owning loop, seeds the shared session counter from
    /// the recovery high-water marks, and only then starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind/pipe/spawn failures. A loop that dies building or
    /// recovering its shards fails the bind with its panic message; the
    /// other loops are stopped and joined first.
    ///
    /// # Panics
    ///
    /// Panics if the durability directory cannot be initialized.
    pub fn bind(addr: &str, cfg: CoreConfig) -> io::Result<CoreRuntime> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let loops = cfg.resolved_loops();
        let shards = cfg.resolved_shards();
        if let Some(d) = &cfg.durability {
            deltaos_store::init_dir(&d.dir, shards as u32)
                .unwrap_or_else(|e| panic!("store init failed: {e}"));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let loop_counters: Arc<Vec<LoopCounters>> =
            Arc::new((0..loops).map(|_| LoopCounters::default()).collect());

        // Wire the mesh: every loop, the acceptor and every client can
        // reach every inbox and wake pipe.
        let mut inboxes = Vec::with_capacity(loops);
        let mut inbox_rxs = Vec::with_capacity(loops);
        let mut wakes = Vec::with_capacity(loops);
        let mut wake_rxs = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (tx, rx) = mpsc::channel();
            inboxes.push(tx);
            inbox_rxs.push(rx);
            let (rx_end, tx_end) = UnixStream::pair()?;
            rx_end.set_nonblocking(true)?;
            tx_end.set_nonblocking(true)?;
            wake_rxs.push(rx_end);
            wakes.push(tx_end);
        }
        let mesh = Arc::new(Mesh {
            loops,
            shards,
            max_dim: cfg.max_dim,
            max_batch: cfg.max_batch,
            next_session: AtomicU64::new(0),
            inboxes,
            wakes,
        });

        let (ready_tx, ready_rx) = mpsc::channel();
        let mut go_txs = Vec::with_capacity(loops);
        let mut loop_threads = Vec::with_capacity(loops);
        for (me, (inbox, wake_rx)) in inbox_rxs.into_iter().zip(wake_rxs).enumerate() {
            let (go_tx, go_rx) = mpsc::channel();
            go_txs.push(go_tx);
            let ctx = CoreCtx {
                me,
                cfg: cfg.clone(),
                mesh: Arc::clone(&mesh),
                stop: Arc::clone(&stop),
                counters: Arc::clone(&counters),
                loop_counters: Arc::clone(&loop_counters),
                inbox,
                wake_rx,
                ready_tx: ready_tx.clone(),
                go_rx,
            };
            loop_threads.push(
                std::thread::Builder::new()
                    .name(format!("deltaos-core-{me}"))
                    .spawn(move || run_core_loop(ctx))?,
            );
        }
        drop(ready_tx);

        // Recovery handshake: collect every loop's high-water mark
        // before any of them serves a byte. Each loop drops its sender
        // after reporting, so a loop that died shows up as a shortfall.
        let mut recovery = Vec::new();
        let mut max_next = 0u64;
        let mut reported = 0;
        while let Ok((loop_max, infos)) = ready_rx.recv() {
            reported += 1;
            max_next = max_next.max(loop_max);
            recovery.extend(infos);
        }
        if reported < loops {
            // Releases the live loops from their `go` wait.
            drop(go_txs);
            let mut failure = String::from("a core loop exited during recovery");
            for (me, t) in loop_threads.into_iter().enumerate() {
                if let Err(panic) = t.join() {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic");
                    failure = format!("core loop {me} died during recovery: {msg}");
                }
            }
            return Err(io::Error::other(failure));
        }
        recovery.sort_by_key(|r| r.shard);
        mesh.next_session.store(max_next, Ordering::Relaxed);
        for go in &go_txs {
            let _ = go.send(());
        }

        // Acceptor: round-robin hand-off; migration rebalances after.
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_mesh = Arc::clone(&mesh);
        let accept_thread = std::thread::Builder::new()
            .name("deltaos-core-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    accept_counters.accepted.fetch_add(1, Ordering::Relaxed);
                    accept_mesh.send(next, CoreMsg::Accept(stream));
                    next = (next + 1) % accept_mesh.loops;
                }
            })?;

        Ok(CoreRuntime {
            addr: local,
            mesh,
            stop,
            counters,
            loop_counters,
            recovery,
            accept_thread: Some(accept_thread),
            loop_threads,
        })
    }

    /// A new in-process handle on this runtime's loops.
    pub fn client(&self) -> Client {
        Client {
            mesh: Arc::clone(&self.mesh),
        }
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the front-end transport counters.
    pub fn frontend_stats(&self) -> FrontendStats {
        self.counters.snapshot()
    }

    /// Snapshot of the per-loop counters, loop order.
    pub fn core_stats(&self) -> Vec<CoreStats> {
        core_stats_snapshot(&self.loop_counters)
    }

    /// The per-loop counters as flat `service.core<N>.*` keys (plus the
    /// summed `service.cross_core_forwards`), for dashboards that speak
    /// [`Stats`] rather than the wire structs.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        let mut forwards = 0u64;
        for c in self.core_stats() {
            let n = c.core;
            s.add(&format!("service.core{n}.conns"), c.conns);
            s.add(&format!("service.core{n}.frames_in"), c.frames_in);
            s.add(&format!("service.core{n}.replies_out"), c.replies_out);
            s.add(&format!("service.core{n}.inline_ops"), c.inline_ops);
            s.add(
                &format!("service.core{n}.cross_core_forwards"),
                c.cross_core_forwards,
            );
            s.add(&format!("service.core{n}.migrations_in"), c.migrations_in);
            s.add(&format!("service.core{n}.wakeups"), c.wakeups);
            s.add(
                &format!("service.core{n}.busy_poll_ticks"),
                c.busy_poll_ticks,
            );
            forwards += c.cross_core_forwards;
        }
        s.add("service.cross_core_forwards", forwards);
        s
    }

    /// What recovery found per durable shard (shard order; empty
    /// without durability).
    pub fn recovery(&self) -> &[RecoveryInfo] {
        &self.recovery
    }

    /// Stops accepting, wakes every loop, and joins all threads. Open
    /// connections drop; accepted in-process calls and withheld replies
    /// are answered; durable shards run their shutdown checkpoint or WAL
    /// sync before the loop exits. Returns every shard's final counters
    /// (index = shard id). Calls on a [`Client`] made after this answer
    /// [`ServiceError::Shutdown`].
    pub fn stop(mut self) -> Vec<Stats> {
        self.halt()
    }

    fn halt(&mut self) -> Vec<Stats> {
        self.stop.store(true, Ordering::Release);
        for w in &self.mesh.wakes {
            let _ = (&*w).write(&[1]);
        }
        // The acceptor blocks in `incoming()`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let mut rows: Vec<Stats> = self
            .loop_threads
            .drain(..)
            .flat_map(|t| t.join().unwrap_or_default())
            .collect();
        rows.sort_by_key(|s| s.counter("service.shard_id"));
        rows
    }
}

impl Drop for CoreRuntime {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.halt();
        }
    }
}

impl std::fmt::Debug for CoreRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreRuntime")
            .field("addr", &self.addr)
            .field("loops", &self.loop_threads.len())
            .finish_non_exhaustive()
    }
}

/// Cheap, cloneable in-process handle on a [`CoreRuntime`]'s loops.
///
/// Each call builds the same `ExecJob` a wire request does (same
/// admission checks), posts it to the owning loop's inbox — the path
/// cross-core forwards take — and blocks on a one-shot channel for the
/// reply. Safe to use from any thread; a call waits only for its own
/// reply. After [`CoreRuntime::stop`] every call answers
/// [`ServiceError::Shutdown`].
#[derive(Clone)]
pub struct Client {
    mesh: Arc<Mesh>,
}

/// A submitted batch's pending reply, from [`Client::batch_async`].
#[derive(Debug)]
pub struct PendingBatch(Receiver<LocalReply>);

impl PendingBatch {
    /// Blocks for the batch's per-event results.
    ///
    /// # Errors
    ///
    /// As for [`Client::batch`].
    pub fn wait(self) -> Result<Vec<EventResult>, ServiceError> {
        let Response::Batch(results) = recv_reply(&self.0)? else {
            unreachable!("a batch answers Batch")
        };
        Ok(results)
    }
}

/// Blocks for one job's reply; a dropped channel means the owning loop
/// has exited.
fn recv_reply(rx: &Receiver<LocalReply>) -> Result<Response, ServiceError> {
    match rx.recv() {
        Ok(LocalReply::Done(result)) => result,
        Ok(LocalReply::Rows(_)) => unreachable!("only stats asks answer with rows"),
        Err(_) => Err(ServiceError::Shutdown),
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("loops", &self.mesh.loops)
            .field("shards", &self.mesh.shards)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Posts `job` to its owning loop with a fresh one-shot reply slot.
    fn submit(&self, job: ExecJob) -> Result<Receiver<LocalReply>, ServiceError> {
        let (tx, rx) = mpsc::channel();
        let owner = self.mesh.owner(job.session());
        let ticket = Ticket::Local(tx);
        if !self.mesh.send(owner, CoreMsg::Exec { ticket, job }) {
            return Err(ServiceError::Shutdown);
        }
        Ok(rx)
    }

    /// Admits `req`, runs it on the owning loop and blocks for the reply.
    fn call(&self, req: Request) -> Result<Response, ServiceError> {
        recv_reply(&self.submit(to_job(&self.mesh, req)?)?)
    }

    /// Opens a plain detection session, blocking for its id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadDimensions`] for zero/over-cap dimensions,
    /// [`ServiceError::TooManySessions`] when the shard is full,
    /// [`ServiceError::ReadOnlyReplica`] on a replica.
    pub fn open(&self, resources: u16, processes: u16) -> Result<SessionId, ServiceError> {
        let Response::Opened(id) = self.call(Request::Open {
            resources,
            processes,
        })?
        else {
            unreachable!("an open answers Opened")
        };
        Ok(id)
    }

    /// Applies a batch, blocking for the per-event results.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BatchTooLarge`] above the admission cap,
    /// [`ServiceError::UnknownSession`] for a missing session,
    /// [`ServiceError::AvoidanceOn`] on a broker session.
    pub fn batch(
        &self,
        session: SessionId,
        events: Vec<Event>,
    ) -> Result<Vec<EventResult>, ServiceError> {
        self.batch_async(session, events)?.wait()
    }

    /// Submits a batch without waiting; [`PendingBatch::wait`] yields the
    /// results once the owning loop ran it. Lets one caller keep many
    /// batches in flight, so a pipelined WAL can group their commits.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BatchTooLarge`] above the admission cap,
    /// [`ServiceError::Shutdown`] after stop; session errors arrive
    /// through [`PendingBatch::wait`].
    pub fn batch_async(
        &self,
        session: SessionId,
        events: Vec<Event>,
    ) -> Result<PendingBatch, ServiceError> {
        let job = to_job(&self.mesh, Request::Batch { session, events })?;
        Ok(PendingBatch(self.submit(job)?))
    }

    /// Closes a session, folding its engine counters into shard stats.
    /// Blocked acquires parked on a closed broker session fail with
    /// [`ServiceError::UnknownSession`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if it does not exist.
    pub fn close(&self, session: SessionId) -> Result<(), ServiceError> {
        self.call(Request::Close { session }).map(drop)
    }

    /// Every shard's counters (index = shard id), collected from every
    /// loop like the wire `Stats` request.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shutdown`] after stop.
    pub fn stats(&self) -> Result<Vec<Stats>, ServiceError> {
        let (tx, rx) = mpsc::channel();
        for target in 0..self.mesh.loops {
            let ticket = Ticket::Local(tx.clone());
            if !self.mesh.send(target, CoreMsg::StatsAsk { ticket }) {
                return Err(ServiceError::Shutdown);
            }
        }
        drop(tx);
        let mut rows = Vec::with_capacity(self.mesh.shards);
        for _ in 0..self.mesh.loops {
            match rx.recv() {
                Ok(LocalReply::Rows(r)) => rows.extend(r),
                Ok(LocalReply::Done(_)) => unreachable!("stats asks answer with rows"),
                Err(_) => return Err(ServiceError::Shutdown),
            }
        }
        rows.sort_by_key(|s| s.counter("service.shard_id"));
        Ok(rows)
    }

    /// Merged counters across all shards.
    ///
    /// # Errors
    ///
    /// As for [`Client::stats`].
    pub fn stats_merged(&self) -> Result<Stats, ServiceError> {
        let mut merged = Stats::new();
        for s in self.stats()? {
            merged.merge(&s);
        }
        Ok(merged)
    }

    /// Serializes a live session into a portable snapshot blob (the
    /// `deltaos-store` checkpoint encoding), taken between batches.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if it does not exist,
    /// [`ServiceError::SnapshotTooLarge`] if the encoding would not fit
    /// in one wire frame.
    pub fn snapshot(&self, session: SessionId) -> Result<Vec<u8>, ServiceError> {
        let Response::Snapshot(blob) = self.call(Request::Snapshot { session })? else {
            unreachable!("a snapshot answers Snapshot")
        };
        Ok(blob)
    }

    /// Materializes a new session from a [`Client::snapshot`] blob
    /// (possibly from another runtime), blocking for the new id. A probe
    /// on the restored session answers exactly as on the original.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSnapshot`] if the blob does not decode or
    /// violates RAG invariants, [`ServiceError::BadDimensions`] above
    /// `max_dim`, [`ServiceError::TooManySessions`] when the shard is
    /// full.
    pub fn restore(&self, snapshot: Vec<u8>) -> Result<SessionId, ServiceError> {
        let Response::Opened(id) = self.call(Request::Restore { snapshot })? else {
            unreachable!("a restore answers Opened")
        };
        Ok(id)
    }

    /// Opens an avoidance-brokered session, blocking for the id. With
    /// [`AvoidanceMode::Off`] this is [`Client::open`]; the other modes
    /// give the session's graph to the Algorithm-3 avoider, driven
    /// through [`Client::acquire`]/[`Client::broker_release`].
    ///
    /// # Errors
    ///
    /// As for [`Client::open`].
    pub fn open_avoid(
        &self,
        resources: u16,
        processes: u16,
        mode: AvoidanceMode,
    ) -> Result<SessionId, ServiceError> {
        let Response::Opened(id) = self.call(Request::OpenAvoid {
            resources,
            processes,
            mode,
        })?
        else {
            unreachable!("an open answers Opened")
        };
        Ok(id)
    }

    /// Sets process `p`'s arbitration priority on a broker session
    /// (smaller level = higher priority), blocking for the `Ack`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::AvoidanceOff`] on a plain session,
    /// [`ServiceError::UnknownSession`] if it does not exist.
    pub fn set_priority(
        &self,
        session: SessionId,
        p: ProcId,
        priority: Priority,
    ) -> Result<Response, ServiceError> {
        self.call(Request::SetPriority {
            session,
            p,
            priority,
        })
    }

    /// Runs the avoidance request command for `(p, q)`, blocking for the
    /// decision. With `wait` set, a deferred acquire parks in the shard's
    /// waiter table and answers only when a later release — from any
    /// connection or handle — grants the edge. With `wait` unset it
    /// answers [`Response::Deferred`] at once and the caller polls by
    /// re-issuing the acquire.
    ///
    /// # Errors
    ///
    /// As for [`Client::set_priority`], including a session closed while
    /// waiting.
    pub fn acquire(
        &self,
        session: SessionId,
        p: ProcId,
        q: ResId,
        wait: bool,
    ) -> Result<Response, ServiceError> {
        self.call(Request::Acquire {
            session,
            p,
            q,
            wait,
        })
    }

    /// Runs the avoidance release command for `(p, q)`, blocking for the
    /// [`Response::Resolved`] decision. Grants it fixes wake blocked
    /// acquires wherever they were issued.
    ///
    /// # Errors
    ///
    /// As for [`Client::set_priority`].
    pub fn broker_release(
        &self,
        session: SessionId,
        p: ProcId,
        q: ResId,
    ) -> Result<Response, ServiceError> {
        self.call(Request::BrokerRelease { session, p, q })
    }

    /// Honors every outstanding give-up ask targeting `p`, blocking for
    /// the final release's decision.
    ///
    /// # Errors
    ///
    /// As for [`Client::set_priority`].
    pub fn give_up_ack(&self, session: SessionId, p: ProcId) -> Result<Response, ServiceError> {
        self.call(Request::GiveUpAck { session, p })
    }

    /// Durability barrier on `session`'s shard (a routing key only; it
    /// need not be open): fsyncs the WAL, releases withheld replies and
    /// answers [`Response::Synced`] with the durable frontier (0 without
    /// durability).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shutdown`] after stop.
    pub fn sync(&self, session: SessionId) -> Result<Response, ServiceError> {
        self.call(Request::Sync { session })
    }

    /// One replication poll against `shard`: a bounded
    /// [`Response::WalSegment`] from `from_seq` (empty = caught up),
    /// folding `acked_seq` into the `repl_ack` release floor.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an out-of-range shard,
    /// [`ServiceError::SubscribeGap`] when `from_seq` fell behind the
    /// replication buffer.
    pub fn subscribe(
        &self,
        shard: u16,
        from_seq: u64,
        acked_seq: u64,
    ) -> Result<Response, ServiceError> {
        self.call(Request::Subscribe {
            shard,
            from_seq,
            acked_seq,
        })
    }

    /// `shard`'s replication posture (role, epoch, frontiers).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an out-of-range shard.
    pub fn replica_status(&self, shard: u16) -> Result<Response, ServiceError> {
        self.call(Request::ReplicaStatus { shard })
    }

    /// Promotes `shard` to primary under `epoch`, which must strictly
    /// advance its current one; answers [`Response::ReplicaStatus`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an out-of-range shard,
    /// [`ServiceError::EpochFenced`] when `epoch` does not advance.
    pub fn promote(&self, shard: u16, epoch: u64) -> Result<Response, ServiceError> {
        self.call(Request::Promote { shard, epoch })
    }

    /// Feeds a primary's WAL records (as pulled by [`Client::subscribe`]
    /// against it) into replica `shard`: mirrored byte-for-byte into the
    /// local WAL and applied through the recovery interpreter. Answers
    /// [`Response::ReplicaStatus`], whose `durable_seq` the tailer acks
    /// back to the primary.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an out-of-range shard,
    /// [`ServiceError::EpochFenced`] on a primary or for records below
    /// the local epoch, [`ServiceError::SubscribeGap`] on a sequence gap.
    pub fn repl_apply(
        &self,
        shard: u16,
        records: Vec<(u64, u64, Vec<u8>)>,
    ) -> Result<Response, ServiceError> {
        let session = self.mesh.shard_key(shard)?;
        recv_reply(&self.submit(ExecJob::ReplApply { session, records })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_sizing_stays_in_bounds() {
        let auto = CoreConfig::auto_sized();
        assert!((1..=8).contains(&auto.resolved_loops()));
        assert_eq!(auto.resolved_shards(), auto.resolved_loops());
        let fixed = CoreConfig {
            loops: 3,
            shards: 7,
            ..CoreConfig::default()
        };
        assert_eq!(fixed.resolved_loops(), 3);
        assert_eq!(fixed.resolved_shards(), 7);
    }

    #[test]
    fn ticket_routing_is_stable() {
        // shard = session % shards, owner = shard % loops: the whole
        // routing contract in one place.
        let (loops, shards) = (3usize, 7usize);
        for sid in 0..100u64 {
            let shard = (sid % shards as u64) as usize;
            let owner = shard % loops;
            assert!(owner < loops);
            assert_eq!(shard, (sid % shards as u64) as usize);
        }
    }
}

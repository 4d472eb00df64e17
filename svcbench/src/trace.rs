//! Seeded workload traces with their expected replies.
//!
//! Every request is generated against an in-process oracle — the same
//! `Session` and `Broker` types the service runs — so the trace holds
//! only valid traffic and the oracle's reply to each request, encoded as
//! the bytes the wire must return. One *pass* of a trace leaves every
//! session exactly where it started (edits are undone in reverse order;
//! broker episodes release everything they took), so a run repeats the
//! same pass and every repetition does the same work.

use std::collections::HashMap;
use std::ops::Range;

use deltaos_core::avoid::{GiveUpAsk, ReleaseOutcome};
use deltaos_core::par::ParConfig;
use deltaos_core::{Priority, ProcId, Rag, ResId};
use deltaos_service::proto::{encode_request_into, encode_response_into};
use deltaos_service::{
    AvoidanceMode, Broker, Event, EventResult, Request, Response, Session, SessionId,
};
use deltaos_store::{BrokerWalOp, WalEvent, WalOp};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hundreds of small memory-only sessions, one request in flight per
    /// connection: the loop's syscalls and wakeups dominate.
    WireRtt,
    /// Mid-size dense and large sparse memory-only sessions: reduction
    /// dominates.
    DetectMix,
    /// Avoidance brokers under contention with a pipelined WAL: the only
    /// workload through the broker, the store and recovery.
    AvoidDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WireRtt,
        Workload::DetectMix,
        Workload::AvoidDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireRtt => "wire_rtt",
            Workload::DetectMix => "detect_mix",
            Workload::AvoidDurable => "avoid_durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn durable(self) -> bool {
        self == Workload::AvoidDurable
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One request: its framed bytes and the reply payload it must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub req: Range<usize>,
    pub resp: Range<usize>,
}

/// One connection's requests in send order, framed back to back so a
/// window of them goes out in one write.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub req_bytes: Vec<u8>,
    pub resp_bytes: Vec<u8>,
}

impl Stream {
    fn push(&mut self, req: &Request, resp: &Response) {
        let start = self.req_bytes.len();
        self.req_bytes.extend_from_slice(&[0; 4]);
        encode_request_into(req, &mut self.req_bytes);
        let len = (self.req_bytes.len() - start - 4) as u32;
        self.req_bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let rs = self.resp_bytes.len();
        encode_response_into(resp, &mut self.resp_bytes);
        self.ops.push(Op {
            req: start..self.req_bytes.len(),
            resp: rs..self.resp_bytes.len(),
        });
    }

    /// The request payload of op `i` (without its length prefix).
    pub fn payload(&self, i: usize) -> &[u8] {
        let r = &self.ops[i].req;
        &self.req_bytes[r.start + 4..r.end]
    }

    /// The expected reply payload of op `i`.
    pub fn expected(&self, i: usize) -> &[u8] {
        &self.resp_bytes[self.ops[i].resp.clone()]
    }
}

/// Per-pass facts about the trace, counted by the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// `Probe` and `WouldDeadlock` events.
    pub probes: u64,
    /// Of those, outcomes that report a deadlock.
    pub deadlocks: u64,
    /// Broker acquires.
    pub acquires: u64,
    /// Events or broker commands the oracle rejected (must be 0).
    pub rejected: u64,
}

/// The oracle's sessions and brokers, in session-id order, at the state
/// every pass starts from.
#[derive(Default)]
pub struct Oracle {
    pub sessions: Vec<Session>,
    pub brokers: Vec<Broker>,
}

/// A generated workload.
pub struct Trace {
    /// Requests in flight on the connection.
    pub depth: usize,
    /// Opens and preload, sent on connection 0 during set-up in the same
    /// closed loop as the pass.
    pub setup: Stream,
    /// One pass.
    pub pass: Stream,
    /// Records written to the WAL before the timer starts; set-up
    /// recovers them.
    pub wal_prefix: Vec<WalOp>,
    pub oracle: Oracle,
    pub tally: Tally,
}

impl Trace {
    pub fn pass_ops(&self) -> usize {
        self.pass.ops.len()
    }
}

/// Generates `workload`'s trace from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Trace {
    // Each workload draws from its own stream of the seed.
    let mut rng = Rng::new(seed ^ (0x5EED_0000 + workload as u64));
    match workload {
        Workload::WireRtt => memory_trace(&WIRE_RTT, &mut rng),
        Workload::DetectMix => memory_trace(&DETECT_MIX, &mut rng),
        Workload::AvoidDurable => broker_trace(&mut rng),
    }
}

/// Shape of a memory-only workload.
struct MemShape {
    /// `(count, dimension, held resources, pending requests)` per class
    /// of session, opened in this order.
    classes: &'static [(usize, u16, usize, usize)],
    /// Forward rounds per pass (each undone by a reverse round).
    rounds: usize,
    /// Extra single-request batches per session round: a probe-only batch
    /// that must hit the result cache, then a `WouldDeadlock` query.
    queries: bool,
}

const WIRE_RTT: MemShape = MemShape {
    classes: &[(256, 16, 8, 6)],
    rounds: 40,
    queries: false,
};

const DETECT_MIX: MemShape = MemShape {
    classes: &[(8, 1024, 600, 600), (8, 512, 256, 160)],
    rounds: 120,
    queries: true,
};

/// Events per preload batch.
const PRELOAD_BATCH: usize = 1024;

/// The client-side mirror of one session: lists of held resources and
/// pending requests for fast random picks, with the oracle session's RAG
/// as the authority on validity.
struct Mirror {
    session: Session,
    held: Vec<ResId>,
    reqs: Vec<(ProcId, ResId)>,
}

impl Mirror {
    fn new(dim: u16) -> Mirror {
        Mirror {
            session: Session::new(dim, dim),
            held: Vec::new(),
            reqs: Vec::new(),
        }
    }

    fn rag(&self) -> &Rag {
        self.session.rag()
    }

    /// A valid edit that drifts toward `held` held resources and `reqs`
    /// pending requests, plus the edit that undoes it.
    fn edit(&self, rng: &mut Rng, held: usize, reqs: usize, grow_only: bool) -> (Event, Event) {
        let rag = self.rag();
        let (m, n) = (rag.resources(), rag.processes());
        loop {
            let resource_side = if grow_only {
                self.held.len() < held
            } else {
                rng.chance(50)
            };
            let grow = if resource_side {
                grow_only || rng.chance(if self.held.len() < held { 70 } else { 30 })
            } else {
                grow_only || rng.chance(if self.reqs.len() < reqs { 70 } else { 30 })
            };
            match (resource_side, grow) {
                (true, true) => {
                    let q = ResId(rng.below(m) as u16);
                    let p = ProcId(rng.below(n) as u16);
                    if rag.owner(q).is_none() && !rag.requesters(q).contains(&p) {
                        return (Event::Grant { q, p }, Event::Release { q, p });
                    }
                }
                (true, false) if !self.held.is_empty() => {
                    let q = self.held[rng.below(self.held.len())];
                    let p = rag.owner(q).expect("held resources have an owner");
                    return (Event::Release { q, p }, Event::Grant { q, p });
                }
                (false, true) => {
                    let q = ResId(rng.below(m) as u16);
                    let p = ProcId(rng.below(n) as u16);
                    if rag.owner(q) != Some(p) && !rag.requesters(q).contains(&p) {
                        return (Event::Request { p, q }, Event::Release { q, p });
                    }
                }
                (false, false) if !self.reqs.is_empty() => {
                    let (p, q) = self.reqs[rng.below(self.reqs.len())];
                    return (Event::Release { q, p }, Event::Request { p, q });
                }
                _ => {}
            }
        }
    }

    /// A valid `WouldDeadlock` query. With `closing`, it asks for an edge
    /// that closes a cycle when the state allows one: a process that the
    /// owner of a held resource waits on, directly or through a chain,
    /// asks for that resource.
    fn query(&self, rng: &mut Rng, closing: bool) -> Event {
        let rag = self.rag();
        if closing && !self.held.is_empty() {
            for _ in 0..16 {
                let q = self.held[rng.below(self.held.len())];
                let owner = rag.owner(q).expect("held resources have an owner");
                let mut at = owner;
                let mut candidate = None;
                for _ in 0..4 {
                    let next = rag.waiting_on(at).into_iter().find_map(|w| rag.owner(w));
                    match next {
                        Some(o) if o != owner => {
                            candidate = Some(o);
                            at = o;
                        }
                        _ => break,
                    }
                }
                if let Some(p) = candidate {
                    if !rag.requesters(q).contains(&p) {
                        return Event::WouldDeadlock { p, q };
                    }
                }
            }
        }
        loop {
            let q = ResId(rng.below(rag.resources()) as u16);
            let p = ProcId(rng.below(rag.processes()) as u16);
            if rag.owner(q) != Some(p) && !rag.requesters(q).contains(&p) {
                return Event::WouldDeadlock { p, q };
            }
        }
    }

    /// Applies one event to the oracle session and keeps the pick lists
    /// in step.
    fn apply(&mut self, ev: Event, tally: &mut Tally) -> EventResult {
        let owner_release = matches!(ev, Event::Release { q, p } if self.rag().owner(q) == Some(p));
        let r = self.session.apply(ev);
        match r {
            EventResult::Rejected(_) => tally.rejected += 1,
            EventResult::Outcome(o) => {
                tally.probes += 1;
                tally.deadlocks += o.deadlock as u64;
            }
            EventResult::Ack => match ev {
                Event::Grant { q, .. } => self.held.push(q),
                Event::Request { p, q } => self.reqs.push((p, q)),
                Event::Release { q, .. } if owner_release => {
                    let i = self.held.iter().position(|&h| h == q).expect("tracked");
                    self.held.swap_remove(i);
                }
                Event::Release { q, p } => {
                    let i = self
                        .reqs
                        .iter()
                        .position(|&e| e == (p, q))
                        .expect("tracked");
                    self.reqs.swap_remove(i);
                }
                _ => {}
            },
        }
        r
    }

    fn batch(&mut self, events: &[Event], tally: &mut Tally) -> Response {
        Response::Batch(events.iter().map(|&ev| self.apply(ev, tally)).collect())
    }
}

fn memory_trace(shape: &MemShape, rng: &mut Rng) -> Trace {
    let mut setup = Stream::default();
    let mut mirrors = Vec::new();
    let mut targets = Vec::new();
    for &(count, dim, held, reqs) in shape.classes {
        for _ in 0..count {
            let sid = SessionId(mirrors.len() as u64);
            setup.push(
                &Request::Open {
                    resources: dim,
                    processes: dim,
                },
                &Response::Opened(sid),
            );
            mirrors.push(Mirror::new(dim));
            targets.push((held, reqs));
        }
    }
    // Preload every session to its steady state (set-up work, not timed
    // traffic), so the pass starts where edits keep it.
    let mut scratch = Tally::default();
    for (s, mirror) in mirrors.iter_mut().enumerate() {
        let (held, reqs) = targets[s];
        let mut events = Vec::new();
        while mirror.held.len() < held || mirror.reqs.len() < reqs {
            let (ev, _) = mirror.edit(rng, held, reqs, true);
            mirror.apply(ev, &mut scratch);
            events.push(ev);
        }
        // The last batch ends with a probe, so every engine is built and
        // warm before the timer starts.
        let chunks: Vec<&[Event]> = events.chunks(PRELOAD_BATCH).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            let mut batch = chunk.to_vec();
            let mut results = vec![EventResult::Ack; chunk.len()];
            if i + 1 == chunks.len() {
                batch.push(Event::Probe);
                results.push(mirror.apply(Event::Probe, &mut scratch));
            }
            setup.push(
                &Request::Batch {
                    session: SessionId(s as u64),
                    events: batch,
                },
                &Response::Batch(results),
            );
        }
    }
    assert_eq!(scratch.rejected, 0, "preload edits must all be valid");
    let start: Vec<Rag> = mirrors.iter().map(|m| m.rag().clone()).collect();

    let mut pass = Stream::default();
    let mut tally = Tally::default();
    let mut undo: Vec<Vec<[Event; 2]>> = vec![Vec::new(); mirrors.len()];
    for round in 0..2 * shape.rounds {
        let forward = round < shape.rounds;
        for (s, mirror) in mirrors.iter_mut().enumerate() {
            let session = SessionId(s as u64);
            let (held, reqs) = targets[s];
            let edits = if forward {
                let (e1, u1) = mirror.edit(rng, held, reqs, false);
                let r1 = mirror.apply(e1, &mut tally);
                let (e2, u2) = mirror.edit(rng, held, reqs, false);
                let r2 = mirror.apply(e2, &mut tally);
                undo[s].push([u2, u1]);
                [(e1, r1), (e2, r2)]
            } else {
                let [u2, u1] = undo[s].pop().expect("one undo per forward round");
                let r2 = mirror.apply(u2, &mut tally);
                let r1 = mirror.apply(u1, &mut tally);
                [(u2, r2), (u1, r1)]
            };
            let probe = mirror.apply(Event::Probe, &mut tally);
            let events = vec![edits[0].0, edits[1].0, Event::Probe];
            let results = vec![edits[0].1, edits[1].1, probe];
            pass.push(
                &Request::Batch { session, events },
                &Response::Batch(results),
            );
            if shape.queries {
                let hits = mirror.session.engine_stats().cache_hits;
                let cached = mirror.batch(&[Event::Probe], &mut tally);
                assert_eq!(
                    mirror.session.engine_stats().cache_hits,
                    hits + 1,
                    "a probe right after a probe must hit the cache"
                );
                pass.push(
                    &Request::Batch {
                        session,
                        events: vec![Event::Probe],
                    },
                    &cached,
                );
                let closing = rng.chance(50);
                let q = mirror.query(rng, closing);
                let outcome = mirror.batch(&[q], &mut tally);
                pass.push(
                    &Request::Batch {
                        session,
                        events: vec![q],
                    },
                    &outcome,
                );
            }
        }
    }
    for (m, s) in mirrors.iter().zip(&start) {
        assert!(same_edges(m.rag(), s), "a pass must end where it started");
    }
    Trace {
        depth: 1,
        setup,
        pass,
        wal_prefix: Vec::new(),
        oracle: Oracle {
            sessions: mirrors.into_iter().map(|m| m.session).collect(),
            brokers: Vec::new(),
        },
        tally,
    }
}

/// Whether two graphs hold the same edges (request order aside — the
/// reduction sees a matrix, not queue order).
fn same_edges(a: &Rag, b: &Rag) -> bool {
    let sorted = |rag: &Rag, q: ResId| {
        let mut r = rag.requesters(q).to_vec();
        r.sort_unstable();
        r
    };
    a.resources() == b.resources()
        && a.processes() == b.processes()
        && (0..a.resources()).all(|i| {
            let q = ResId(i as u16);
            a.owner(q) == b.owner(q) && sorted(a, q) == sorted(b, q)
        })
}

/// Broker sessions of `avoid_durable`.
const BROKER_SESSIONS: usize = 32;
/// Resources and processes per broker session.
const BROKER_DIM: u16 = 16;
/// Processes and resources one contention episode draws on.
const EPISODE_WIDTH: usize = 4;
/// Random steps before an episode drains.
const EPISODE_STEPS: usize = 10;
/// Records written to the WAL before the timer (to the next whole
/// episode), so recovery replays the same amount whatever the seed.
const WAL_RECORDS: usize = 80_000;
/// Episodes per session in one pass.
const PASS_EPISODES: usize = 60;
/// Requests in flight on the single durable connection.
pub const DURABLE_DEPTH: usize = 256;

/// One broker command and the reply the wire must carry for it.
struct Cmd {
    req: Request,
    resp: Response,
}

/// Runs one contention episode on `broker`: processes acquire (blocking)
/// and release a few shared resources, every give-up ask is honoured at
/// once, and the episode drains until nothing is held or waited on.
/// Returns `None` (leaving `broker` modified) when the episode would
/// leave a reply slot parked longer than the pipeline window, hit a
/// livelock, or be rejected; the caller restores and retries.
fn episode(broker: &mut Broker, session: SessionId, rng: &mut Rng) -> Option<Vec<Cmd>> {
    let dim = BROKER_DIM as usize;
    let mut procs: Vec<ProcId> = Vec::new();
    while procs.len() < EPISODE_WIDTH {
        let p = ProcId(rng.below(dim) as u16);
        if !procs.contains(&p) {
            procs.push(p);
        }
    }
    let mut res: Vec<ResId> = Vec::new();
    while res.len() < EPISODE_WIDTH {
        let q = ResId(rng.below(dim) as u16);
        if !res.contains(&q) {
            res.push(q);
        }
    }
    let livelocks = broker.livelock_events();
    let mut out: Vec<Cmd> = Vec::new();
    // Blocked processes: the request they wait on and, for a parked reply
    // slot, the index of that acquire.
    let mut blocked: HashMap<ProcId, (ResId, Option<usize>)> = HashMap::new();
    let mut asks: Vec<GiveUpAsk> = Vec::new();
    let mut step = 0;
    loop {
        let draining = step >= EPISODE_STEPS;
        step += 1;
        if step > EPISODE_STEPS + 40 {
            return None;
        }
        let rag = broker.rag();
        let free: Vec<ProcId> = procs
            .iter()
            .copied()
            .filter(|p| !blocked.contains_key(p))
            .collect();
        let held: Vec<(ProcId, ResId)> = res
            .iter()
            .filter_map(|&q| rag.owner(q).map(|p| (p, q)))
            .filter(|(p, _)| !blocked.contains_key(p))
            .collect();
        let req = if let Some(ask) = asks.first() {
            Request::GiveUpAck {
                session,
                p: ask.target,
            }
        } else if !draining && !free.is_empty() && (held.is_empty() || rng.chance(60)) {
            let p = free[rng.below(free.len())];
            let q = res[rng.below(res.len())];
            if rag.owner(q) == Some(p) {
                continue;
            }
            Request::Acquire {
                session,
                p,
                q,
                wait: true,
            }
        } else if let Some(&(p, q)) = held.get(rng.below(held.len().max(1))) {
            Request::BrokerRelease { session, p, q }
        } else if blocked.is_empty() && rag.is_empty() {
            break;
        } else {
            return None;
        };
        let idx = out.len();
        let (resp, grants) = match req {
            Request::Acquire { p, q, .. } => {
                let (resp, grants) = broker.acquire(p, q);
                match &resp {
                    Response::Deferred { .. } => {
                        blocked.insert(p, (q, Some(idx)));
                    }
                    Response::GiveUp { ask, .. } => {
                        blocked.insert(p, (q, None));
                        asks.push(ask.clone());
                    }
                    Response::Granted { .. } => {}
                    _ => return None,
                }
                (resp, grants)
            }
            Request::BrokerRelease { p, q, .. } => broker.release(p, q),
            Request::GiveUpAck { p, .. } => {
                asks.retain(|a| a.target != p);
                broker.give_up_ack(p)
            }
            _ => unreachable!("episodes send broker commands only"),
        };
        match &resp {
            Response::Resolved {
                outcome: ReleaseOutcome::Livelock { .. },
                ..
            }
            | Response::Rejected(_) => return None,
            _ => {}
        }
        // A parked reply slot answers `Granted` once a later command's
        // grant names its edge.
        let wire = match resp {
            Response::Deferred { .. } => Response::Granted {
                cycles: 0,
                probes: 0,
            },
            other => other,
        };
        out.push(Cmd { req, resp: wire });
        for (p, q) in grants {
            if let Some(&(wq, slot)) = blocked.get(&p) {
                if wq == q {
                    if let Some(at) = slot {
                        if idx - at >= DURABLE_DEPTH {
                            return None;
                        }
                    }
                    blocked.remove(&p);
                }
            }
        }
    }
    (broker.livelock_events() == livelocks && broker.waiter_depth() == 0).then_some(out)
}

/// Runs an episode, restoring `broker` and retrying with fresh draws
/// until one completes.
fn episode_retrying(broker: &mut Broker, session: SessionId, rng: &mut Rng) -> Vec<Cmd> {
    for _ in 0..64 {
        let before = broker.snapshot(session.0);
        if let Some(cmds) = episode(broker, session, rng) {
            return cmds;
        }
        *broker = Broker::restore_from(&before, None, ParConfig::default())
            .expect("a live broker's snapshot restores");
    }
    panic!("no valid contention episode for {session} in 64 draws");
}

fn broker_wal_op(req: &Request) -> WalOp {
    let (session, op) = match *req {
        Request::Acquire { session, p, q, .. } => (session, BrokerWalOp::Acquire { p, q }),
        Request::BrokerRelease { session, p, q } => (session, BrokerWalOp::Release { p, q }),
        Request::GiveUpAck { session, p } => (session, BrokerWalOp::GiveUpAck { p }),
        _ => unreachable!("episode commands only"),
    };
    WalOp::Broker {
        session: session.0,
        op,
    }
}

/// The WAL record a durable service logs for `req`, if it logs one.
pub fn wal_op(req: &Request) -> Option<WalOp> {
    match req {
        Request::Batch { session, events } => Some(WalOp::Batch {
            session: session.0,
            events: events.iter().map(wal_event).collect(),
        }),
        Request::Acquire { .. } | Request::BrokerRelease { .. } | Request::GiveUpAck { .. } => {
            Some(broker_wal_op(req))
        }
        _ => None,
    }
}

fn wal_event(ev: &Event) -> WalEvent {
    match *ev {
        Event::Request { p, q } => WalEvent::Request { p, q },
        Event::Grant { q, p } => WalEvent::Grant { q, p },
        Event::Release { q, p } => WalEvent::Release { q, p },
        Event::Probe => WalEvent::Probe,
        Event::WouldDeadlock { p, q } => WalEvent::WouldDeadlock { p, q },
    }
}

fn broker_trace(rng: &mut Rng) -> Trace {
    let mut wal_prefix = Vec::new();
    let mut brokers = Vec::new();
    for s in 0..BROKER_SESSIONS {
        let session = SessionId(s as u64);
        let mut b = Broker::new(BROKER_DIM, BROKER_DIM, false, None, ParConfig::default());
        assert_eq!(b.mode(), AvoidanceMode::FastPath);
        wal_prefix.push(WalOp::Broker {
            session: session.0,
            op: BrokerWalOp::Open {
                resources: BROKER_DIM,
                processes: BROKER_DIM,
                metered: false,
            },
        });
        for p in 0..BROKER_DIM {
            let (p, priority) = (ProcId(p), Priority::new(1 + rng.below(8) as u8));
            assert_eq!(b.set_priority(p, priority), Response::Ack);
            wal_prefix.push(WalOp::Broker {
                session: session.0,
                op: BrokerWalOp::SetPriority { p, priority },
            });
        }
        brokers.push(b);
    }
    let mut s = 0;
    while wal_prefix.len() < WAL_RECORDS {
        let cmds = episode_retrying(&mut brokers[s], SessionId(s as u64), rng);
        wal_prefix.extend(cmds.iter().map(|c| broker_wal_op(&c.req)));
        s = (s + 1) % BROKER_SESSIONS;
    }
    let mut stream = Stream::default();
    let mut tally = Tally::default();
    for _ in 0..PASS_EPISODES {
        for (s, b) in brokers.iter_mut().enumerate() {
            for c in episode_retrying(b, SessionId(s as u64), rng) {
                if let Request::Acquire { .. } = c.req {
                    tally.acquires += 1;
                }
                stream.push(&c.req, &c.resp);
            }
        }
    }
    Trace {
        depth: DURABLE_DEPTH,
        setup: Stream::default(),
        pass: stream,
        wal_prefix,
        oracle: Oracle {
            sessions: Vec::new(),
            brokers,
        },
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltaos_service::proto::{decode_request, decode_response};

    fn fingerprint(t: &Trace) -> Vec<u8> {
        let mut out = Vec::new();
        for s in [&t.setup, &t.pass] {
            out.extend_from_slice(&s.req_bytes);
            out.extend_from_slice(&s.resp_bytes);
        }
        for op in &t.wal_prefix {
            op.encode_into(&mut out);
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_trace() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", w.name());
            let c = generate(w, 8);
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", w.name());
        }
    }

    /// Replays every generated request through fresh in-process state and
    /// demands the recorded reply, no rejection anywhere, and a pass that
    /// ends where it started (so a second pass replies identically).
    #[test]
    fn every_generated_event_is_valid_and_replays() {
        for w in [Workload::WireRtt, Workload::DetectMix] {
            let t = generate(w, 3);
            assert_eq!(t.tally.rejected, 0);
            let mut sessions: Vec<Session> = Vec::new();
            let replay = |stream: &Stream, sessions: &mut Vec<Session>| {
                for i in 0..stream.ops.len() {
                    let req = decode_request(stream.payload(i)).expect("decodes");
                    let got = match req {
                        Request::Open {
                            resources,
                            processes,
                        } => {
                            sessions.push(Session::new(resources, processes));
                            Response::Opened(SessionId(sessions.len() as u64 - 1))
                        }
                        Request::Batch { session, events } => {
                            let mut out = Vec::new();
                            let tally = sessions[session.0 as usize].apply_batch(&events, &mut out);
                            assert_eq!(tally.rejected, 0);
                            Response::Batch(out)
                        }
                        other => panic!("unexpected {other:?}"),
                    };
                    assert_eq!(got, decode_response(stream.expected(i)).unwrap());
                }
            };
            replay(&t.setup, &mut sessions);
            for _ in 0..2 {
                replay(&t.pass, &mut sessions);
            }
            if w == Workload::DetectMix {
                assert!(t.tally.deadlocks > 0, "detect_mix must see deadlocks");
                assert!(t.tally.deadlocks < t.tally.probes);
            }
        }
    }

    #[test]
    fn broker_trace_replays_from_its_wal_prefix() {
        let t = generate(Workload::AvoidDurable, 5);
        assert_eq!(t.tally.rejected, 0);
        let mut brokers: Vec<Broker> = Vec::new();
        for op in &t.wal_prefix {
            match op {
                WalOp::Broker {
                    op:
                        BrokerWalOp::Open {
                            resources,
                            processes,
                            metered,
                        },
                    ..
                } => brokers.push(Broker::new(
                    *resources,
                    *processes,
                    *metered,
                    None,
                    ParConfig::default(),
                )),
                WalOp::Broker { session, op } => {
                    let b = &mut brokers[*session as usize];
                    match *op {
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
                        BrokerWalOp::Open { .. } => unreachable!(),
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stream = &t.pass;
        for _ in 0..2 {
            for i in 0..stream.ops.len() {
                let req = decode_request(stream.payload(i)).unwrap();
                let resp = match req {
                    Request::Acquire { session, p, q, .. } => {
                        brokers[session.0 as usize].acquire(p, q).0
                    }
                    Request::BrokerRelease { session, p, q } => {
                        brokers[session.0 as usize].release(p, q).0
                    }
                    Request::GiveUpAck { session, p } => {
                        brokers[session.0 as usize].give_up_ack(p).0
                    }
                    other => panic!("unexpected {other:?}"),
                };
                let wire = match resp {
                    Response::Deferred { .. } => Response::Granted {
                        cycles: 0,
                        probes: 0,
                    },
                    other => other,
                };
                assert!(!matches!(wire, Response::Rejected(_)));
                assert_eq!(wire, decode_response(stream.expected(i)).unwrap());
            }
        }
        assert!(t.tally.acquires > 0);
    }
}

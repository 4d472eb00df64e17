//! # deltaos-cluster — consistent-hash multi-process scale-out
//!
//! One deltaos service process is bounded by its own shard pool. This
//! crate scales *out*: a [`ClusterClient`] front-end routes sessions
//! across N independent service processes (each a normal
//! [`CoreRuntime`](deltaos_service::CoreRuntime) over its own store
//! directory) by consistent-hashing the cluster-level session id onto a
//! [`HashRing`] of nodes.
//!
//! The pieces:
//!
//! * [`ring`] — splitmix64 consistent-hash ring with virtual nodes, so
//!   membership changes move ~`1/n` of the sessions instead of all of
//!   them.
//! * [`ClusterClient`] — opens sessions on the ring-chosen node, keeps a
//!   cluster-sid → (node, remote sid) table, and forwards batches,
//!   closes, snapshots and broker ops over the wire.
//! * **Migration** — [`ClusterClient::migrate`] moves a live session
//!   between nodes with the existing durability primitives: `Snapshot`
//!   on the source, `Restore` on the target, `Close` on the source.
//!   [`ClusterClient::rebalance`] applies that to every session whose
//!   ring home changed after [`add_node`](ClusterClient::add_node) /
//!   [`remove_node`](ClusterClient::remove_node).
//! * **Failover** — [`ClusterClient::fail_over`] swaps a dead primary
//!   for its WAL-streaming follower (see
//!   [`deltaos_service::replica`]): promote every follower shard under
//!   `epoch + 1`, then re-point the dead node's sessions at the
//!   successor *without* changing remote session ids — the follower's
//!   WAL is a byte mirror of the primary's, so the ids already match.
//!
//! The front-end is a client-side library, not another server hop:
//! routing state lives in the process that owns the workload, and two
//! front-ends over the same ring make the same placement decisions for
//! the same ids.

pub mod ring;

pub use ring::{splitmix64, HashRing, DEFAULT_REPLICAS};

use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

use deltaos_service::proto::AvoidanceMode;
use deltaos_service::{
    ErrorCode, Event, EventResult, ReplStatus, Request, Response, SessionId, TcpClient, WireError,
};

/// A cluster-scoped session handle. Stable across migration and
/// failover; the mapping to (node, remote [`SessionId`]) lives in the
/// [`ClusterClient`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterSession(pub u64);

/// Where a cluster session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index into the cluster's node table.
    pub node: usize,
    /// The session id on that node's wire.
    pub remote: SessionId,
}

/// Cluster front-end failures.
#[derive(Debug)]
pub enum ClusterError {
    /// The ring has no routable nodes.
    NoNodes,
    /// The cluster session id is not in the placement table.
    UnknownSession,
    /// The node is marked down (failed over or removed).
    NodeDown(usize),
    /// Transport failure talking to a node (connection dropped and one
    /// reconnect attempt also failed).
    Wire(usize, WireError),
    /// The node answered with a service error.
    Remote(ErrorCode),
    /// The node answered with a response of the wrong shape.
    Unexpected(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "no routable nodes in the ring"),
            ClusterError::UnknownSession => write!(f, "unknown cluster session"),
            ClusterError::NodeDown(n) => write!(f, "node {n} is down"),
            ClusterError::Wire(n, e) => write!(f, "node {n} transport error: {e}"),
            ClusterError::Remote(code) => write!(f, "remote error: {code:?}"),
            ClusterError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// [`ClusterClient`] construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Wire addresses of the initial ring members, one per service
    /// process. Node index = position in this vector.
    pub nodes: Vec<SocketAddr>,
    /// Virtual points per node on the ring.
    pub vnodes: usize,
    /// Shards per node — every node must run the same shard count; used
    /// by failover promotion to promote each follower shard.
    pub shards: u16,
    /// Retries for `Busy` answers (admission backpressure) before the
    /// error surfaces, with [`ClusterConfig::busy_backoff`] sleeps
    /// between attempts.
    pub busy_retries: u32,
    /// Sleep between `Busy` retries.
    pub busy_backoff: Duration,
}

impl ClusterConfig {
    /// A cluster over `nodes`, each running `shards` shards, with
    /// defaults suited to tests: 64 virtual points, 100 × 1ms busy
    /// retries.
    pub fn new(nodes: Vec<SocketAddr>, shards: u16) -> ClusterConfig {
        ClusterConfig {
            nodes,
            vnodes: DEFAULT_REPLICAS,
            shards,
            busy_retries: 100,
            busy_backoff: Duration::from_millis(1),
        }
    }
}

struct Node {
    addr: SocketAddr,
    conn: Option<TcpClient>,
    /// In the ring and accepting new sessions. Standbys and failed
    /// nodes are `false`.
    routable: bool,
    /// Reachable at all. A failed-over node is not.
    up: bool,
}

/// The cluster front-end: consistent-hash routing, session placement,
/// migration, and failover over plain wire clients.
///
/// Connections are opened lazily and re-opened once per call on
/// transport failure. The client is single-threaded by design — run one
/// per front-end thread; placement agreement between front-ends comes
/// from the deterministic ring, not shared state.
pub struct ClusterClient {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    ring: HashRing,
    sessions: HashMap<u64, Placement>,
    next_sid: u64,
}

impl ClusterClient {
    /// Builds the front-end over `cfg.nodes`. No connections are opened
    /// yet; the first call to each node connects.
    pub fn new(cfg: ClusterConfig) -> ClusterClient {
        let mut ring = HashRing::new(cfg.vnodes);
        let nodes = cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                ring.add(i);
                Node {
                    addr,
                    conn: None,
                    routable: true,
                    up: true,
                }
            })
            .collect();
        ClusterClient {
            cfg,
            nodes,
            ring,
            sessions: HashMap::new(),
            next_sid: 0,
        }
    }

    /// Adds a node to the table *and* the ring, returning its index.
    /// Existing sessions stay put until [`rebalance`](Self::rebalance).
    pub fn add_node(&mut self, addr: SocketAddr) -> usize {
        let idx = self.add_standby(addr);
        self.nodes[idx].routable = true;
        self.ring.add(idx);
        idx
    }

    /// Adds a node to the table but *not* the ring: reachable for
    /// explicit migration/failover targets, never chosen by hashing.
    /// This is how a WAL-streaming follower is registered before
    /// [`fail_over`](Self::fail_over) flips it live.
    pub fn add_standby(&mut self, addr: SocketAddr) -> usize {
        self.nodes.push(Node {
            addr,
            conn: None,
            routable: false,
            up: true,
        });
        self.nodes.len() - 1
    }

    /// Drains `node` and removes it from the ring: every session homed
    /// there is migrated to its new ring owner, then the node is marked
    /// down. Returns the number of sessions moved.
    pub fn remove_node(&mut self, node: usize) -> Result<usize, ClusterError> {
        self.ring.remove(node);
        self.nodes[node].routable = false;
        let stranded: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, p)| p.node == node)
            .map(|(&sid, _)| sid)
            .collect();
        let mut moved = 0;
        for sid in stranded {
            let target = self.ring.route(sid).ok_or(ClusterError::NoNodes)?;
            self.migrate(ClusterSession(sid), target)?;
            moved += 1;
        }
        self.nodes[node].up = false;
        self.nodes[node].conn = None;
        Ok(moved)
    }

    /// The node a fresh session with this id would hash to.
    pub fn ideal_node(&self, session: ClusterSession) -> Option<usize> {
        self.ring.route(session.0)
    }

    /// Where `session` currently lives.
    pub fn placement(&self, session: ClusterSession) -> Option<Placement> {
        self.sessions.get(&session.0).copied()
    }

    /// Number of sessions currently homed on `node`.
    pub fn sessions_on(&self, node: usize) -> usize {
        self.sessions.values().filter(|p| p.node == node).count()
    }

    /// Opens a probe-only session on the ring-chosen node.
    pub fn open(&mut self, resources: u16, processes: u16) -> Result<ClusterSession, ClusterError> {
        self.open_routed(Request::Open {
            resources,
            processes,
        })
    }

    /// Opens an avoidance-broker session on the ring-chosen node.
    pub fn open_avoid(
        &mut self,
        resources: u16,
        processes: u16,
        mode: AvoidanceMode,
    ) -> Result<ClusterSession, ClusterError> {
        self.open_routed(Request::OpenAvoid {
            resources,
            processes,
            mode,
        })
    }

    fn open_routed(&mut self, mut req: Request) -> Result<ClusterSession, ClusterError> {
        let sid = self.next_sid;
        let node = self.ring.route(sid).ok_or(ClusterError::NoNodes)?;
        match self.call(node, &mut req)? {
            Response::Opened(remote) => {
                self.next_sid += 1;
                self.sessions.insert(sid, Placement { node, remote });
                Ok(ClusterSession(sid))
            }
            Response::Error(code) => Err(ClusterError::Remote(code)),
            _ => Err(ClusterError::Unexpected("open")),
        }
    }

    /// Applies `events` to `session` on whichever node it lives on.
    pub fn batch(
        &mut self,
        session: ClusterSession,
        events: Vec<Event>,
    ) -> Result<Vec<EventResult>, ClusterError> {
        let p = self.place(session)?;
        match self.call(
            p.node,
            &mut Request::Batch {
                session: p.remote,
                events,
            },
        )? {
            Response::Batch(results) => Ok(results),
            Response::Error(code) => Err(ClusterError::Remote(code)),
            _ => Err(ClusterError::Unexpected("batch")),
        }
    }

    /// Broker acquire on a cluster session. `wait = true` blocks this
    /// front-end until granted — same contract as the wire op.
    pub fn acquire(
        &mut self,
        session: ClusterSession,
        p: deltaos_core::ProcId,
        q: deltaos_core::ResId,
        wait: bool,
    ) -> Result<Response, ClusterError> {
        let place = self.place(session)?;
        let resp = self.call(
            place.node,
            &mut Request::Acquire {
                session: place.remote,
                p,
                q,
                wait,
            },
        )?;
        match resp {
            Response::Error(code) => Err(ClusterError::Remote(code)),
            other => Ok(other),
        }
    }

    /// Broker release on a cluster session.
    pub fn broker_release(
        &mut self,
        session: ClusterSession,
        p: deltaos_core::ProcId,
        q: deltaos_core::ResId,
    ) -> Result<Response, ClusterError> {
        let place = self.place(session)?;
        let resp = self.call(
            place.node,
            &mut Request::BrokerRelease {
                session: place.remote,
                p,
                q,
            },
        )?;
        match resp {
            Response::Error(code) => Err(ClusterError::Remote(code)),
            other => Ok(other),
        }
    }

    /// Closes `session` and drops its placement.
    pub fn close(&mut self, session: ClusterSession) -> Result<(), ClusterError> {
        let p = self.place(session)?;
        match self.call(p.node, &mut Request::Close { session: p.remote })? {
            Response::Closed => {
                self.sessions.remove(&session.0);
                Ok(())
            }
            Response::Error(code) => Err(ClusterError::Remote(code)),
            _ => Err(ClusterError::Unexpected("close")),
        }
    }

    /// Captures `session` as opaque snapshot bytes (the store's durable
    /// session encoding).
    pub fn snapshot(&mut self, session: ClusterSession) -> Result<Vec<u8>, ClusterError> {
        let p = self.place(session)?;
        match self.call(p.node, &mut Request::Snapshot { session: p.remote })? {
            Response::Snapshot(bytes) => Ok(bytes),
            Response::Error(code) => Err(ClusterError::Remote(code)),
            _ => Err(ClusterError::Unexpected("snapshot")),
        }
    }

    /// Durability barrier on the node owning `session`.
    pub fn sync(&mut self, session: ClusterSession) -> Result<(), ClusterError> {
        let p = self.place(session)?;
        match self.call(p.node, &mut Request::Sync { session: p.remote })? {
            Response::Synced { .. } => Ok(()),
            Response::Error(code) => Err(ClusterError::Remote(code)),
            _ => Err(ClusterError::Unexpected("sync")),
        }
    }

    /// Per-node `Stats` responses, for nodes that are up.
    pub fn stats(&mut self) -> Vec<(usize, Result<Response, ClusterError>)> {
        let up: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].up)
            .collect();
        up.into_iter()
            .map(|n| (n, self.call(n, &mut Request::Stats)))
            .collect()
    }

    /// Moves `session` to `target` with the durable primitives:
    /// `Snapshot` source → `Restore` target → `Close` source. The
    /// cluster session id is unchanged; only the placement moves. On a
    /// broker session the snapshot carries waiter state, so queued
    /// acquires survive the move.
    pub fn migrate(&mut self, session: ClusterSession, target: usize) -> Result<(), ClusterError> {
        let src = self.place(session)?;
        if src.node == target {
            return Ok(());
        }
        if !self.nodes[target].up {
            return Err(ClusterError::NodeDown(target));
        }
        let bytes = self.snapshot(session)?;
        let remote = match self.call(target, &mut Request::Restore { snapshot: bytes })? {
            Response::Opened(remote) => remote,
            Response::Error(code) => return Err(ClusterError::Remote(code)),
            _ => return Err(ClusterError::Unexpected("restore")),
        };
        // Point the table at the new copy first: if the source close
        // fails (e.g. the node died between snapshot and close) the
        // session must not be left pointing at the dead copy.
        self.sessions.insert(
            session.0,
            Placement {
                node: target,
                remote,
            },
        );
        match self.call(
            src.node,
            &mut Request::Close {
                session: src.remote,
            },
        ) {
            Ok(Response::Closed) | Ok(Response::Error(_)) | Err(_) => {}
            Ok(_) => return Err(ClusterError::Unexpected("close")),
        }
        Ok(())
    }

    /// Migrates every session whose current home differs from its ring
    /// home (after membership changed). Returns the number moved.
    pub fn rebalance(&mut self) -> Result<usize, ClusterError> {
        let moves: Vec<(u64, usize)> = self
            .sessions
            .iter()
            .filter_map(|(&sid, p)| match self.ring.route(sid) {
                Some(ideal) if ideal != p.node => Some((sid, ideal)),
                _ => None,
            })
            .collect();
        let mut moved = 0;
        for (sid, target) in moves {
            self.migrate(ClusterSession(sid), target)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Reads shard `shard`'s replication status on `node`.
    pub fn replica_status(&mut self, node: usize, shard: u16) -> Result<ReplStatus, ClusterError> {
        match self.call(node, &mut Request::ReplicaStatus { shard })? {
            Response::ReplicaStatus(st) => Ok(st),
            Response::Error(code) => Err(ClusterError::Remote(code)),
            _ => Err(ClusterError::Unexpected("replica status")),
        }
    }

    /// Promotes every shard of `node` to primary under `epoch + 1`
    /// (each shard's own epoch). Idempotent per epoch: a shard already
    /// past the target epoch answers `EpochFenced` and is skipped.
    /// Returns the number of shards actually promoted.
    pub fn promote_node(&mut self, node: usize) -> Result<u16, ClusterError> {
        let mut promoted = 0;
        for shard in 0..self.cfg.shards {
            let epoch = self.replica_status(node, shard)?.epoch;
            match self.call(
                node,
                &mut Request::Promote {
                    shard,
                    epoch: epoch + 1,
                },
            )? {
                Response::ReplicaStatus(_) => promoted += 1,
                Response::Error(ErrorCode::EpochFenced) => {}
                Response::Error(code) => return Err(ClusterError::Remote(code)),
                _ => return Err(ClusterError::Unexpected("promote")),
            }
        }
        Ok(promoted)
    }

    /// Fails `dead` over to `successor`, its WAL-streaming follower:
    ///
    /// 1. promotes every shard of `successor` (fencing `dead`'s epoch),
    /// 2. re-points every session homed on `dead` at `successor` under
    ///    the *same* remote session ids — the follower's WAL is a byte
    ///    mirror, so the ids and state already exist there,
    /// 3. swaps ring membership: `dead` out, `successor` in.
    ///
    /// Returns the number of sessions re-pointed.
    pub fn fail_over(&mut self, dead: usize, successor: usize) -> Result<usize, ClusterError> {
        self.nodes[dead].up = false;
        self.nodes[dead].routable = false;
        self.nodes[dead].conn = None;
        self.ring.remove(dead);
        self.promote_node(successor)?;
        let mut repointed = 0;
        for p in self.sessions.values_mut() {
            if p.node == dead {
                p.node = successor;
                repointed += 1;
            }
        }
        if !self.nodes[successor].routable {
            self.nodes[successor].routable = true;
            self.ring.add(successor);
        }
        Ok(repointed)
    }

    fn place(&self, session: ClusterSession) -> Result<Placement, ClusterError> {
        self.sessions
            .get(&session.0)
            .copied()
            .ok_or(ClusterError::UnknownSession)
    }

    /// One wire call with lazy connect, one reconnect on transport
    /// failure, and bounded `Busy` retries.
    fn call(&mut self, node: usize, req: &mut Request) -> Result<Response, ClusterError> {
        if !self.nodes[node].up {
            return Err(ClusterError::NodeDown(node));
        }
        let mut busy_left = self.cfg.busy_retries;
        let mut reconnected = false;
        loop {
            if self.nodes[node].conn.is_none() {
                let addr = self.nodes[node].addr;
                match TcpClient::connect(addr) {
                    Ok(c) => self.nodes[node].conn = Some(c),
                    Err(e) => return Err(ClusterError::Wire(node, WireError::Io(e))),
                }
            }
            let conn = self.nodes[node].conn.as_mut().expect("connected above");
            match conn.call(req) {
                Ok(Response::Busy) if busy_left > 0 => {
                    busy_left -= 1;
                    std::thread::sleep(self.cfg.busy_backoff);
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.nodes[node].conn = None;
                    if reconnected {
                        return Err(ClusterError::Wire(node, e));
                    }
                    reconnected = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn placement_table_without_network() {
        // Everything that doesn't need a live node: ring wiring,
        // standby registration, ideal_node determinism.
        let cfg = ClusterConfig::new(vec![addr(1), addr(2), addr(3)], 4);
        let mut cc = ClusterClient::new(cfg);
        let standby = cc.add_standby(addr(4));
        assert_eq!(standby, 3);
        // Standbys never win routing.
        for sid in 0..500 {
            assert_ne!(cc.ideal_node(ClusterSession(sid)), Some(standby));
        }
        // Routing is deterministic: a second client over the same config
        // agrees on every placement.
        let cc2 = ClusterClient::new(ClusterConfig::new(vec![addr(1), addr(2), addr(3)], 4));
        for sid in 0..500 {
            assert_eq!(
                cc.ideal_node(ClusterSession(sid)),
                cc2.ideal_node(ClusterSession(sid))
            );
        }
    }

    #[test]
    fn unknown_session_is_an_error() {
        let mut cc = ClusterClient::new(ClusterConfig::new(vec![addr(1)], 1));
        assert!(matches!(
            cc.batch(ClusterSession(9), Vec::new()),
            Err(ClusterError::UnknownSession)
        ));
        assert!(matches!(
            cc.close(ClusterSession(9)),
            Err(ClusterError::UnknownSession)
        ));
    }
}

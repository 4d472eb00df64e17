//! WAL-streaming replica tailer: the follower half of the replication
//! pair.
//!
//! A follower process runs a normal [`CoreRuntime`](crate::CoreRuntime)
//! with [`CoreConfig::replica`](crate::CoreConfig::replica) set (so its
//! shards refuse mutations) and one [`ReplicaTailer`] thread that
//!
//! 1. polls the primary's wire `Subscribe` op per shard, pulling bounded
//!    [`Response::WalSegment`]s from its replication buffer,
//! 2. feeds each segment into the local runtime through the in-process
//!    [`Client::repl_apply`], which mirrors the records byte-for-byte
//!    into the local WAL and applies them through the recovery
//!    interpreter, and
//! 3. piggybacks the local durable frontier back onto the next poll as
//!    `acked_seq` — the signal the primary's `repl_ack` release gate
//!    waits for.
//!
//! An empty segment is the heartbeat: the follower is caught up and the
//! primary is alive. When polls *fail* for longer than
//! [`TailerConfig::heartbeat_timeout`] the tailer declares the primary
//! dead; with [`TailerConfig::auto_promote`] set it then promotes every
//! local shard under `epoch + 1` and exits — the runtime it tails for is
//! now the primary, and the deposed one's unreplicated WAL tail is
//! fenced off by the epoch check in `repl_apply` should it ever try to
//! stream here.
//!
//! The tailer is deliberately pull-based and single-threaded: one
//! connection, one in-flight segment per shard, no push path to race
//! with promotion. Lag is bounded by the primary's replication buffer
//! ([`ServiceError::SubscribeGap`] says the follower fell off its tail
//! and must re-seed from snapshots — surfaced in the report, not papered
//! over).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::core_runtime::Client;
use crate::proto::{ErrorCode, ReplStatus, Request, Response};
use crate::shard::ServiceError;
use crate::tcp::TcpClient;

/// [`ReplicaTailer`] construction parameters.
#[derive(Debug, Clone)]
pub struct TailerConfig {
    /// The primary's wire address.
    pub primary: SocketAddr,
    /// Shards to tail — must equal the shard count on both sides (the
    /// replication pair is symmetric by construction).
    pub shards: u16,
    /// Delay between poll rounds once every shard is caught up. Polls
    /// run back-to-back while segments arrive non-empty.
    pub poll_interval: Duration,
    /// How long polls may keep failing before the primary is declared
    /// dead.
    pub heartbeat_timeout: Duration,
    /// On primary death: promote every local shard under `epoch + 1`
    /// and exit. Without it the tailer just exits and leaves promotion
    /// to the operator (or the cluster front-end).
    pub auto_promote: bool,
}

impl TailerConfig {
    /// Tail `shards` shards of the primary at `primary` with snappy
    /// test-friendly intervals: 1ms polls, 500ms heartbeat timeout, no
    /// auto-promotion.
    pub fn new(primary: SocketAddr, shards: u16) -> TailerConfig {
        TailerConfig {
            primary,
            shards,
            poll_interval: Duration::from_millis(1),
            heartbeat_timeout: Duration::from_millis(500),
            auto_promote: false,
        }
    }
}

/// What a finished tailer did, returned by [`ReplicaTailer::stop`].
#[derive(Debug, Clone, Default)]
pub struct TailerReport {
    /// Non-empty segments applied.
    pub segments: u64,
    /// WAL records applied across all shards.
    pub records: u64,
    /// True when the tailer auto-promoted the local shards after a
    /// heartbeat timeout.
    pub promoted: bool,
    /// Shards that answered [`ServiceError::SubscribeGap`] — they fell
    /// off the primary's replication buffer and need a snapshot re-seed.
    pub gapped_shards: Vec<u16>,
    /// The last transport/apply error observed, if any.
    pub last_error: Option<String>,
}

/// A running tailer thread. Stop (and read the report) with
/// [`ReplicaTailer::stop`]; the thread also exits on its own after a
/// heartbeat timeout (having promoted first if configured).
pub struct ReplicaTailer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<TailerReport>>,
}

impl ReplicaTailer {
    /// Spawns the tailer: `local` is a client of the *replica* runtime
    /// this process runs, `cfg.primary` the wire address of the primary
    /// to tail.
    pub fn start(local: Client, cfg: TailerConfig) -> ReplicaTailer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("deltaos-repl-tailer".into())
            .spawn(move || run_tailer(local, cfg, flag))
            .expect("spawn replica tailer");
        ReplicaTailer {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the thread and joins it, returning what it did.
    pub fn stop(mut self) -> TailerReport {
        self.stop.store(true, Ordering::Release);
        match self.thread.take() {
            Some(t) => t.join().expect("replica tailer panicked"),
            None => TailerReport::default(),
        }
    }
}

impl Drop for ReplicaTailer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Local per-shard cursor: the next primary seq wanted and the local
/// durable frontier to ack.
struct Cursor {
    next_seq: u64,
    acked: u64,
    gapped: bool,
}

fn local_status(local: &Client, shard: u16) -> Option<ReplStatus> {
    match local.replica_status(shard) {
        Ok(Response::ReplicaStatus(st)) => Some(st),
        _ => None,
    }
}

fn run_tailer(local: Client, cfg: TailerConfig, stop: Arc<AtomicBool>) -> TailerReport {
    let mut report = TailerReport::default();
    // Seed cursors from the local shards: a follower restarted mid-tail
    // resumes exactly past what its own WAL already holds.
    let mut cursors: Vec<Cursor> = (0..cfg.shards)
        .map(|s| {
            let st = local_status(&local, s);
            Cursor {
                next_seq: st.as_ref().map_or(0, |st| st.last_seq) + 1,
                acked: st.as_ref().map_or(0, |st| st.durable_seq),
                gapped: false,
            }
        })
        .collect();
    let mut conn: Option<TcpClient> = None;
    let mut last_ok = Instant::now();
    while !stop.load(Ordering::Acquire) {
        // (Re)connect lazily; failures count against the heartbeat.
        if conn.is_none() {
            match TcpClient::connect(cfg.primary) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    report.last_error = Some(e.to_string());
                }
            }
        }
        let mut progressed = false;
        if let Some(c) = conn.as_mut() {
            let mut broken = false;
            for (shard, cur) in cursors.iter_mut().enumerate() {
                if cur.gapped {
                    continue;
                }
                let shard = shard as u16;
                match c.call(&Request::Subscribe {
                    shard,
                    from_seq: cur.next_seq,
                    acked_seq: cur.acked,
                }) {
                    Ok(Response::WalSegment { records, .. }) => {
                        last_ok = Instant::now();
                        if records.is_empty() {
                            continue; // caught up: heartbeat only
                        }
                        match local.repl_apply(shard, records) {
                            Ok(Response::ReplicaStatus(st)) => {
                                report.segments += 1;
                                report.records += st.last_seq.saturating_sub(cur.next_seq - 1);
                                cur.next_seq = st.last_seq + 1;
                                cur.acked = st.durable_seq;
                                progressed = true;
                            }
                            Ok(_) => {}
                            Err(ServiceError::SubscribeGap) => {
                                cur.gapped = true;
                                report.gapped_shards.push(shard);
                            }
                            Err(e) => {
                                report.last_error = Some(e.to_string());
                            }
                        }
                    }
                    Ok(Response::Error(ErrorCode::SubscribeGap)) => {
                        last_ok = Instant::now();
                        cur.gapped = true;
                        report.gapped_shards.push(shard);
                    }
                    Ok(Response::Error(ErrorCode::Shutdown)) => {
                        // A shut-down primary keeps answering frames on
                        // established connections until the peer hangs
                        // up: a Shutdown error is death, not liveness.
                        // Leave `last_ok` stale so the heartbeat clock
                        // runs out.
                        report.last_error = Some("primary shut down".into());
                    }
                    Ok(_) => {
                        last_ok = Instant::now();
                    }
                    Err(e) => {
                        report.last_error = Some(e.to_string());
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                conn = None;
            }
        }
        if last_ok.elapsed() >= cfg.heartbeat_timeout {
            // Primary declared dead.
            if cfg.auto_promote {
                for shard in 0..cfg.shards {
                    let epoch = local_status(&local, shard).map_or(0, |st| st.epoch);
                    if local.promote(shard, epoch + 1).is_ok() {
                        report.promoted = true;
                    }
                }
            }
            break;
        }
        if !progressed {
            std::thread::sleep(cfg.poll_interval);
        }
    }
    report
}

//! Crash-recovery fault injection: a durable service is driven with a
//! deterministic workload, its store directory is damaged at randomized
//! points (including mid-record WAL truncations, the torn-write case),
//! and a restarted service must be **bit-identical** to an independent
//! replay of the surviving prefix — same detection outcomes, same
//! `sim::Stats` counters, down to engine cache hits.
//!
//! The driver is fully synchronous (blocking client calls), so per-shard
//! op order — and therefore every counter this test compares — is
//! deterministic. Timing-dependent counters (the `store.*` I/O tallies)
//! are deliberately excluded.

#![cfg(unix)]

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use deltaos_core::par::ParConfig;
use deltaos_core::{Priority, ProcId, ResId};
use deltaos_service::{
    AvoidanceMode, Broker, CoreConfig, CoreRuntime, DurabilityConfig, Event, EventResult,
    FsyncPolicy, Session, SessionId,
};
use deltaos_sim::Stats;
use deltaos_store::wal::scan;
use deltaos_store::{BrokerWalOp, ShardCheckpoint, ShardCounters, WalOp};
use rand::{Rng, SeedableRng, StdRng};

const SHARDS: usize = 2;

/// The deterministic counters recovery must reproduce exactly.
const KEYS: &[&str] = &[
    "service.events",
    "service.batches",
    "service.probes",
    "service.rejected_events",
    "service.cache_hits",
    "service.reductions",
    "service.dense_reductions",
    "service.sparse_reductions",
    "service.live_edges",
    "service.density_permille",
    "service.sessions_opened",
    "service.sessions_closed",
    "service.sessions_open",
    "service.broker_grants",
    "service.broker_deferrals",
    "service.broker_give_ups",
    "service.broker_livelocks",
    "service.broker_waiters",
];

fn deterministic(stats: &Stats) -> Vec<u64> {
    KEYS.iter().map(|k| stats.counter(k)).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltaos-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, fsync: FsyncPolicy, checkpoint_every: u64) -> CoreConfig {
    CoreConfig {
        shards: SHARDS,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync,
            checkpoint_every_records: checkpoint_every,
            checkpoint_on_shutdown: false,
            repl_ack: false,
        }),
        ..CoreConfig::default()
    }
}

/// The default policy: pipelined group commit.
fn group_commit() -> FsyncPolicy {
    DurabilityConfig::new("").fsync
}

/// One fsync per logged op.
const ONE_FSYNC_PER_OP: FsyncPolicy = FsyncPolicy::Pipelined {
    max_records: 1,
    deadline: Duration::from_micros(500),
};

fn start(config: CoreConfig) -> CoreRuntime {
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind runtime")
}

/// Drives a seeded workload through a blocking client; returns the still
/// open session ids.
fn drive(service: &CoreRuntime, seed: u64, ops: usize) -> Vec<SessionId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = service.client();
    let mut open: Vec<SessionId> = Vec::new();
    for _ in 0..ops {
        let roll = rng.gen_range(0..10u32);
        if open.is_empty() || roll == 0 {
            open.push(client.open(8, 8).unwrap());
        } else if roll == 1 && open.len() > 1 {
            let sid = open.swap_remove(rng.gen_range(0..open.len()));
            client.close(sid).unwrap();
        } else {
            let sid = open[rng.gen_range(0..open.len())];
            let n = rng.gen_range(1..8usize);
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let p = ProcId(rng.gen_range(0..8u16));
                let q = ResId(rng.gen_range(0..8u16));
                events.push(match rng.gen_range(0..6u32) {
                    0 | 1 => Event::Grant { q, p },
                    2 => Event::Request { p, q },
                    3 => Event::Release { q, p },
                    4 => Event::WouldDeadlock { p, q },
                    _ => Event::Probe,
                });
            }
            client.batch(sid, events).unwrap();
        }
    }
    open.sort();
    open
}

/// One shard's state rebuilt *independently* of the service's recovery
/// code: checkpoint load + WAL scan + replay through plain [`Session`]s.
struct RefShard {
    counters: ShardCounters,
    sessions: HashMap<u64, Session>,
    brokers: HashMap<u64, Broker>,
}

impl RefShard {
    /// The deterministic counter vector this shard's stats must show.
    fn expected(&self) -> Vec<u64> {
        let mut cache_hits = self.counters.retired_cache_hits;
        let mut reductions = self.counters.retired_reductions;
        let mut dense_reductions = self.counters.retired_dense_reductions;
        let mut sparse_reductions = self.counters.retired_sparse_reductions;
        let mut live_edges = 0u64;
        let mut live_area = 0u64;
        for sess in self.sessions.values() {
            let es = sess.engine_stats();
            cache_hits += es.cache_hits;
            reductions += es.reductions;
            dense_reductions += es.dense_reductions;
            sparse_reductions += es.sparse_reductions;
            live_edges += es.live_edges;
            let rag = sess.rag();
            live_area += (rag.resources() as u64) * (rag.processes() as u64);
        }
        let mut broker_grants = self.counters.retired_broker_grants;
        let mut broker_deferrals = self.counters.retired_broker_deferrals;
        let mut broker_give_ups = self.counters.retired_broker_give_ups;
        let mut broker_livelocks = self.counters.retired_broker_livelocks;
        let mut broker_waiters = 0u64;
        for b in self.brokers.values() {
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
            live_area += (rag.resources() as u64) * (rag.processes() as u64);
        }
        let density_permille = (live_edges * 1000).checked_div(live_area).unwrap_or(0);
        vec![
            self.counters.events,
            self.counters.batches,
            self.counters.probes,
            self.counters.rejected,
            cache_hits,
            reductions,
            dense_reductions,
            sparse_reductions,
            live_edges,
            density_permille,
            self.counters.sessions_opened,
            self.counters.sessions_closed,
            (self.sessions.len() + self.brokers.len()) as u64,
            broker_grants,
            broker_deferrals,
            broker_give_ups,
            broker_livelocks,
            broker_waiters,
        ]
    }
}

/// Replays the surviving prefix of each shard's store. `wal_bytes` are
/// the (possibly damaged) WAL contents as read from disk — passed in so
/// the reference sees exactly what the service will.
fn replay_reference(dir: &Path, wal_bytes: &[Vec<u8>]) -> Vec<RefShard> {
    (0..SHARDS)
        .map(|shard| {
            let ckpt =
                ShardCheckpoint::load(&dir.join(format!("checkpoint-{shard}.snap"))).unwrap();
            let mut sessions: HashMap<u64, Session> = HashMap::new();
            let mut brokers: HashMap<u64, Broker> = HashMap::new();
            let mut counters = ShardCounters::default();
            let mut floor = 0u64;
            if let Some(c) = &ckpt {
                counters = c.counters;
                floor = c.last_seq;
                for snap in &c.sessions {
                    if snap.broker.is_some() {
                        let b = Broker::restore_from(snap, None, ParConfig::default()).unwrap();
                        brokers.insert(snap.session, b);
                    } else {
                        let sess = Session::restore_from(snap, None, ParConfig::default()).unwrap();
                        sessions.insert(snap.session, sess);
                    }
                }
            }
            let mut results = Vec::new();
            for (seq, _epoch, op) in scan(&wal_bytes[shard]).records {
                if seq <= floor {
                    continue;
                }
                match op {
                    WalOp::Open {
                        session,
                        resources,
                        processes,
                    } => {
                        sessions.insert(session, Session::new(resources, processes));
                        counters.sessions_opened += 1;
                    }
                    WalOp::Batch { session, events } => {
                        let sess = sessions.get_mut(&session).expect("batch for live session");
                        results.clear();
                        let tally = sess.apply_batch(&events, &mut results);
                        counters.batches += 1;
                        counters.events += tally.events;
                        counters.probes += tally.probes;
                        counters.rejected += tally.rejected;
                    }
                    WalOp::Close { session } => {
                        if let Some(sess) = sessions.remove(&session) {
                            let es = sess.engine_stats();
                            counters.retired_cache_hits += es.cache_hits;
                            counters.retired_reductions += es.reductions;
                            counters.retired_dense_reductions += es.dense_reductions;
                            counters.retired_sparse_reductions += es.sparse_reductions;
                        } else {
                            let b = brokers.remove(&session).expect("close of live session");
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
                        }
                        counters.sessions_closed += 1;
                    }
                    WalOp::Restore { snapshot } => {
                        if snapshot.broker.is_some() {
                            let b = Broker::restore_from(&snapshot, None, ParConfig::default())
                                .unwrap();
                            brokers.insert(snapshot.session, b);
                        } else {
                            let sess = Session::restore_from(&snapshot, None, ParConfig::default())
                                .unwrap();
                            sessions.insert(snapshot.session, sess);
                        }
                        counters.sessions_opened += 1;
                    }
                    // The WAL logs broker *commands*; replaying them
                    // against identical state re-derives identical
                    // decisions and counters — no decisions on disk.
                    WalOp::Broker { session, op } => match op {
                        BrokerWalOp::Open {
                            resources,
                            processes,
                            metered,
                        } => {
                            brokers.insert(
                                session,
                                Broker::new(
                                    resources,
                                    processes,
                                    metered,
                                    None,
                                    ParConfig::default(),
                                ),
                            );
                            counters.sessions_opened += 1;
                        }
                        BrokerWalOp::SetPriority { p, priority } => {
                            brokers.get_mut(&session).unwrap().set_priority(p, priority);
                        }
                        BrokerWalOp::Acquire { p, q } => {
                            brokers.get_mut(&session).unwrap().acquire(p, q);
                        }
                        BrokerWalOp::Release { p, q } => {
                            brokers.get_mut(&session).unwrap().release(p, q);
                        }
                        BrokerWalOp::GiveUpAck { p } => {
                            brokers.get_mut(&session).unwrap().give_up_ack(p);
                        }
                    },
                }
            }
            RefShard {
                counters,
                sessions,
                brokers,
            }
        })
        .collect()
}

/// Asserts a freshly started service over `dir` matches the reference:
/// per-shard deterministic counters first, then a probe on every live
/// session (advanced identically on both sides).
fn assert_recovery_matches(dir: &Path, reference: &mut [RefShard], fsync: FsyncPolicy) {
    let service = start(config(dir, fsync, u64::MAX));
    let client = service.client();
    let per_shard = client.stats().unwrap();
    for (shard, stats) in per_shard.iter().enumerate() {
        assert_eq!(
            deterministic(stats),
            reference[shard].expected(),
            "shard {shard} counters diverge from the reference replay"
        );
    }
    for (shard, rs) in reference.iter_mut().enumerate() {
        let mut ids: Vec<u64> = rs.sessions.keys().copied().collect();
        ids.sort();
        for id in ids {
            let got = client.batch(SessionId(id), vec![Event::Probe]).unwrap();
            let want = rs.sessions.get_mut(&id).unwrap().apply(Event::Probe);
            assert_eq!(
                got[0], want,
                "shard {shard} session {id}: probe outcome diverges after recovery"
            );
        }
    }
    service.stop();
}

#[test]
fn graceful_restart_is_bit_identical() {
    for (name, checkpoint_every) in [("nockpt", u64::MAX), ("ckpt", 16)] {
        let dir = tmp(&format!("graceful-{name}"));
        {
            let service = start(config(&dir, group_commit(), checkpoint_every));
            assert!(service.recovery().iter().all(|r| r.live_sessions == 0));
            drive(&service, 0xFEED, 300);
            service.stop();
        }
        let wal_bytes: Vec<Vec<u8>> = (0..SHARDS)
            .map(|s| fs::read(dir.join(format!("wal-{s}.log"))).unwrap_or_default())
            .collect();
        let mut reference = replay_reference(&dir, &wal_bytes);
        // A graceful shutdown loses nothing: the reference covers the
        // full workload and the restarted service must match it.
        assert_recovery_matches(&dir, &mut reference, group_commit());
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_at_randomized_wal_points_recovers_the_surviving_prefix() {
    let pristine = tmp("crash-pristine");
    {
        let service = start(config(&pristine, FsyncPolicy::Os, u64::MAX));
        drive(&service, 0xC0FFEE, 250);
        service.stop();
    }
    let pristine_wals: Vec<Vec<u8>> = (0..SHARDS)
        .map(|s| fs::read(pristine.join(format!("wal-{s}.log"))).unwrap())
        .collect();
    assert!(
        pristine_wals.iter().all(|w| w.len() > 64),
        "workload must leave a meaty WAL to damage"
    );

    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for round in 0..8 {
        let dir = tmp(&format!("crash-{round}"));
        fs::create_dir_all(&dir).unwrap();
        fs::copy(pristine.join("store.meta"), dir.join("store.meta")).unwrap();
        // Crash simulation: each shard's log is cut at an arbitrary byte
        // offset — usually mid-record, the torn-write case fsync never
        // protects against.
        let damaged: Vec<Vec<u8>> = pristine_wals
            .iter()
            .map(|w| {
                let cut = rng.gen_range(0..=w.len());
                w[..cut].to_vec()
            })
            .collect();
        for (s, bytes) in damaged.iter().enumerate() {
            fs::write(dir.join(format!("wal-{s}.log")), bytes).unwrap();
        }
        let mut reference = replay_reference(&dir, &damaged);
        let survived: u64 = damaged.iter().map(|w| scan(w).records.len() as u64).sum();
        let total: u64 = pristine_wals
            .iter()
            .map(|w| scan(w).records.len() as u64)
            .sum();
        assert!(survived <= total);
        assert_recovery_matches(&dir, &mut reference, FsyncPolicy::Os);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&pristine).unwrap();
}

/// Drives a brokered avoidance workload: sessions opened in both broker
/// modes, prioritized processes, and a contended acquire/release mix
/// (few resources, more processes) so waiters queue and R-dl asks fire.
/// All acquires poll (`wait = false`) — the driver is a single thread.
fn drive_brokers(service: &CoreRuntime, seed: u64, ops: usize) -> Vec<SessionId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = service.client();
    let mut open: Vec<SessionId> = Vec::new();
    for _ in 0..ops {
        let roll = rng.gen_range(0..12u32);
        if open.is_empty() || roll == 0 {
            let mode = if rng.gen_bool(0.5) {
                AvoidanceMode::Metered
            } else {
                AvoidanceMode::FastPath
            };
            let sid = client.open_avoid(4, 6, mode).unwrap();
            for i in 0..6u16 {
                client
                    .set_priority(sid, ProcId(i), Priority::new(rng.gen_range(1..8u32) as u8))
                    .unwrap();
            }
            open.push(sid);
        } else if roll == 1 && open.len() > 1 {
            let sid = open.swap_remove(rng.gen_range(0..open.len()));
            client.close(sid).unwrap();
        } else {
            let sid = open[rng.gen_range(0..open.len())];
            let p = ProcId(rng.gen_range(0..6u16));
            let q = ResId(rng.gen_range(0..4u16));
            // Rejected responses are part of the workload: they exercise
            // the logged-but-state-free replay path.
            match rng.gen_range(0..8u32) {
                0..=4 => {
                    client.acquire(sid, p, q, false).unwrap();
                }
                5 | 6 => {
                    client.broker_release(sid, p, q).unwrap();
                }
                _ => {
                    client.give_up_ack(sid, p).unwrap();
                }
            }
        }
    }
    open.sort();
    open
}

/// The broker chaos case: the service dies at arbitrary WAL byte offsets
/// (usually mid-record — including mid-`Acquire`, with waiters queued
/// behind live owners), and the restarted service must re-derive the
/// waiter state bit-identically: same counters, byte-identical broker
/// snapshots, and the *same re-grant decisions* as an independent
/// reference replay when the recovered waiters are finally released.
#[test]
fn broker_crash_mid_acquire_regrants_deterministically() {
    let pristine = tmp("broker-crash-pristine");
    {
        let service = start(config(&pristine, FsyncPolicy::Os, u64::MAX));
        drive_brokers(&service, 0xB40C, 300);
        service.stop();
    }
    let pristine_wals: Vec<Vec<u8>> = (0..SHARDS)
        .map(|s| fs::read(pristine.join(format!("wal-{s}.log"))).unwrap())
        .collect();
    assert!(pristine_wals.iter().all(|w| w.len() > 64));

    let mut rng = StdRng::seed_from_u64(0xB4DD);
    let mut saw_waiters = false;
    for round in 0..8 {
        let dir = tmp(&format!("broker-crash-{round}"));
        fs::create_dir_all(&dir).unwrap();
        fs::copy(pristine.join("store.meta"), dir.join("store.meta")).unwrap();
        let damaged: Vec<Vec<u8>> = pristine_wals
            .iter()
            .map(|w| {
                let cut = rng.gen_range(0..=w.len());
                w[..cut].to_vec()
            })
            .collect();
        for (s, bytes) in damaged.iter().enumerate() {
            fs::write(dir.join(format!("wal-{s}.log")), bytes).unwrap();
        }
        let mut reference = replay_reference(&dir, &damaged);
        saw_waiters |= reference
            .iter()
            .any(|r| r.brokers.values().any(|b| b.waiter_depth() > 0));

        let service = start(config(&dir, FsyncPolicy::Os, u64::MAX));
        let client = service.client();
        let per_shard = client.stats().unwrap();
        for (shard, stats) in per_shard.iter().enumerate() {
            assert_eq!(
                deterministic(stats),
                reference[shard].expected(),
                "round {round} shard {shard}: broker counters diverge from the reference"
            );
        }
        for rs in reference.iter_mut() {
            let mut ids: Vec<u64> = rs.brokers.keys().copied().collect();
            ids.sort();
            // Byte-identical broker state: priorities, parked waiters,
            // outstanding asks, cycle totals — everything the snapshot
            // encodes.
            for &id in &ids {
                let got = client.snapshot(SessionId(id)).unwrap();
                let want = rs.brokers.get(&id).unwrap().snapshot(id).encode();
                assert_eq!(
                    got, want,
                    "round {round} session {id}: recovered broker snapshot diverges"
                );
            }
            // Deterministic re-grant: release the first owned edge on
            // both sides; arbitration over the recovered waiters must
            // pick the same process with the same decision shape.
            for &id in &ids {
                let b = rs.brokers.get_mut(&id).unwrap();
                let edge = {
                    let rag = b.rag();
                    (0..rag.resources() as u16)
                        .find_map(|qi| rag.owner(ResId(qi)).map(|p| (p, ResId(qi))))
                };
                if let Some((p, q)) = edge {
                    let (want, _grants) = b.release(p, q);
                    let got = client.broker_release(SessionId(id), p, q).unwrap();
                    assert_eq!(
                        got, want,
                        "round {round} session {id}: post-recovery re-grant diverges"
                    );
                }
            }
        }
        service.stop();
        fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        saw_waiters,
        "the chaos workload must cut at least one WAL with waiters still queued"
    );
    fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn recovery_reports_and_session_ids_never_collide() {
    let dir = tmp("info");
    let open_after_restart;
    {
        let service = start(config(&dir, ONE_FSYNC_PER_OP, u64::MAX));
        let open = drive(&service, 0xAB1E, 120);
        assert!(!open.is_empty());
        service.stop();
        open_after_restart = open;
    }
    let service = start(config(&dir, ONE_FSYNC_PER_OP, u64::MAX));
    let infos = service.recovery();
    assert_eq!(infos.len(), SHARDS);
    let live: u64 = infos.iter().map(|r| r.live_sessions).sum();
    assert_eq!(live, open_after_restart.len() as u64);
    assert!(infos.iter().all(|r| r.shard < SHARDS));
    // Fresh ids must start above everything ever used, even sessions
    // that were closed before the restart.
    let client = service.client();
    let fresh = client.open(4, 4).unwrap();
    assert!(
        fresh.0 >= infos.iter().map(|r| r.next_session).max().unwrap(),
        "fresh id {fresh:?} collides with the recovered id space"
    );
    assert!(!open_after_restart.contains(&fresh));
    // Recovered sessions answer under their original ids.
    for sid in &open_after_restart {
        assert!(matches!(
            client.batch(*sid, vec![Event::Probe]).unwrap()[0],
            EventResult::Outcome(_)
        ));
    }
    service.stop();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_compaction_truncates_the_wal() {
    let dir = tmp("compaction");
    {
        let service = start(config(&dir, group_commit(), 8));
        drive(&service, 0x5EED, 200);
        let merged = service.client().stats_merged().unwrap();
        assert!(
            merged.counter("store.checkpoints") > 0,
            "threshold of 8 records over 200 ops must checkpoint"
        );
        service.stop();
    }
    // After compaction the WAL holds only the post-checkpoint suffix.
    for s in 0..SHARDS {
        let wal = fs::read(dir.join(format!("wal-{s}.log"))).unwrap_or_default();
        let records = scan(&wal).records.len() as u64;
        assert!(records <= 8 + 1, "shard {s}: WAL kept {records} records");
        assert!(dir.join(format!("checkpoint-{s}.snap")).exists());
    }
    // And the compacted store still restarts bit-identically.
    let wal_bytes: Vec<Vec<u8>> = (0..SHARDS)
        .map(|s| fs::read(dir.join(format!("wal-{s}.log"))).unwrap_or_default())
        .collect();
    let mut reference = replay_reference(&dir, &wal_bytes);
    assert_recovery_matches(&dir, &mut reference, group_commit());
    fs::remove_dir_all(&dir).unwrap();
}

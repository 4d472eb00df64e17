//! Group-commit pipeline chaos: the fused runtime runs with
//! [`FsyncPolicy::Pipelined`] — WAL appends decoupled from fsync, client
//! replies withheld until their record is durable — and the store is
//! crashed by cutting each shard's WAL at arbitrary byte offsets between
//! the last `Sync`-acknowledged frontier and the file end.
//!
//! The crash contract under test:
//!
//! * **Replied ⟹ durable.** Every op acknowledged before a `Sync`
//!   barrier survives any cut at or past the barrier's file size — the
//!   barrier reply is only released after `fdatasync` returns.
//! * **Unreplied ops may vanish**, but only as a clean suffix: recovery
//!   is bit-identical to an independent replay of the surviving prefix
//!   (same live sessions, same engine state, same continuation results).
//!
//! Swept over the `DELTAOS_TEST_THREADS` loop-count matrix like the
//! other fused-runtime suites. Unlike those, this test does *not*
//! assert zero busy poll ticks: the commit-deadline timeout arms the
//! poll with a finite timeout, so deadline wakeups are expected.

#![cfg(unix)]

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    CoreConfig, CoreRuntime, DurabilityConfig, Event, FsyncPolicy, Request, Response, Session,
    SessionId, TcpClient,
};
use deltaos_store::wal::scan;
use deltaos_store::WalOp;
use rand::{Rng, SeedableRng, StdRng};

const SHARDS: usize = 2;
const SESSIONS: usize = 4;
const DIMS: (u16, u16) = (12, 12);
const CHUNK: usize = 6;
/// Batches per session in the durable (replied + synced) phase A.
const A_BATCHES: usize = 10;
/// Batches per session in the may-vanish phase B.
const B_BATCHES: usize = 6;

fn thread_counts() -> Vec<usize> {
    match std::env::var("DELTAOS_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("DELTAOS_TEST_THREADS must be a thread count")],
        Err(_) => vec![1, 2, 8],
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deltaos-pipeline-recovery-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn event_log(seed: u64, len: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = Vec::with_capacity(len);
    for _ in 0..len {
        let p = ProcId(rng.gen_range(0..DIMS.1));
        let q = ResId(rng.gen_range(0..DIMS.0));
        log.push(match rng.gen_range(0..8u32) {
            0 | 1 => Event::Request { p, q },
            2 | 3 => Event::Grant { q, p },
            4 => Event::Release { q, p },
            5 => Event::WouldDeadlock { p, q },
            _ => Event::Probe,
        });
    }
    log
}

/// Replays the surviving WAL prefixes through plain [`Session`]s —
/// independent of the service's own recovery code. The workload opens
/// sessions and applies batches only, so those are the only ops a
/// surviving prefix can contain.
fn replay_reference(damaged: &[Vec<u8>]) -> HashMap<u64, Session> {
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut scratch = Vec::new();
    for wal in damaged {
        for (_seq, _epoch, op) in scan(wal).records {
            match op {
                WalOp::Open {
                    session,
                    resources,
                    processes,
                } => {
                    sessions.insert(session, Session::new(resources, processes));
                }
                WalOp::Batch { session, events } => {
                    let sess = sessions.get_mut(&session).expect("batch for live session");
                    scratch.clear();
                    sess.apply_batch(&events, &mut scratch);
                }
                other => panic!("workload never logs {other:?}"),
            }
        }
    }
    sessions
}

#[test]
fn pipelined_crash_loses_only_the_unreplied_suffix() {
    for loops in thread_counts() {
        let pristine = tmp(&format!("loops{loops}"));
        let config = |dir: &PathBuf| CoreConfig {
            loops,
            shards: SHARDS,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Pipelined {
                    max_records: 8,
                    deadline: Duration::from_micros(500),
                },
                // No compaction: the WAL stays append-only so byte
                // offsets captured at the barrier remain valid floors.
                checkpoint_every_records: u64::MAX,
                checkpoint_on_shutdown: false,
                repl_ack: false,
            }),
            ..CoreConfig::default()
        };

        let runtime = CoreRuntime::bind("127.0.0.1:0", config(&pristine)).expect("bind");
        let mut cli = TcpClient::connect(runtime.local_addr()).expect("connect");

        // Open the sessions and build their deterministic logs.
        let mut sessions: Vec<(SessionId, Vec<Event>)> = Vec::new();
        for s in 0..SESSIONS {
            let sid = match cli
                .call(&Request::Open {
                    resources: DIMS.0,
                    processes: DIMS.1,
                })
                .expect("open")
            {
                Response::Opened(sid) => sid,
                other => panic!("open answered {other:?}"),
            };
            let log = event_log(
                0x9E_11 ^ (loops * 37 + s) as u64,
                (A_BATCHES + B_BATCHES) * CHUNK,
            );
            sessions.push((sid, log));
        }

        // Phase A: a pipelined burst across every session, then recv
        // every withheld reply. Under `Pipelined`, each reply arriving
        // proves its record was fsynced.
        let mut expect = 0usize;
        for (sid, log) in &sessions {
            for chunk in log[..A_BATCHES * CHUNK].chunks(CHUNK) {
                cli.send(&Request::Batch {
                    session: *sid,
                    events: chunk.to_vec(),
                })
                .expect("phase A send");
                expect += 1;
            }
        }
        for k in 0..expect {
            match cli.recv().expect("phase A recv") {
                Response::Batch(r) => assert_eq!(r.len(), CHUNK),
                other => panic!("phase A batch {k} answered {other:?}"),
            }
        }

        // Sync barrier on every session: whatever shard each routes to,
        // all shards get flushed and every phase-A record is durable.
        for (sid, _) in &sessions {
            match cli.call(&Request::Sync { session: *sid }).expect("sync") {
                Response::Synced { durable_lsn } => {
                    assert!(durable_lsn > 0, "loops={loops}: synced shard has records")
                }
                other => panic!("sync answered {other:?}"),
            }
        }

        // The runtime is quiescent (strict request/response, all replies
        // in hand), so the WAL file sizes are the durable floors: no cut
        // at or past them may lose a phase-A op.
        let wal_path = |s: usize| pristine.join(format!("wal-{s}.log"));
        let floors: Vec<usize> = (0..SHARDS)
            .map(|s| fs::metadata(wal_path(s)).expect("wal exists").len() as usize)
            .collect();
        let floor_records: usize = (0..SHARDS)
            .map(|s| {
                let bytes = fs::read(wal_path(s)).expect("wal readable");
                scan(&bytes[..floors[s]]).records.len()
            })
            .sum();
        assert_eq!(
            floor_records,
            SESSIONS + SESSIONS * A_BATCHES,
            "loops={loops}: every replied op must be on disk at the barrier"
        );

        // The pipeline must actually be batching: fewer fsyncs than
        // logical records (`max_records: 1` would do one per record).
        let fsyncs: u64 = match cli.call(&Request::Stats).expect("stats") {
            Response::Stats { shards, .. } => shards.iter().map(|r| r.pipeline_fsyncs).sum(),
            other => panic!("stats answered {other:?}"),
        };
        assert!(
            fsyncs >= SHARDS as u64,
            "loops={loops}: sync barrier flushed"
        );
        assert!(
            fsyncs < floor_records as u64,
            "loops={loops}: {fsyncs} fsyncs for {floor_records} records — no grouping"
        );

        // Phase B: more replied traffic, then a graceful stop (which
        // flushes). The pristine WALs hold the full workload.
        let mut expect = 0usize;
        for (sid, log) in &sessions {
            for chunk in log[A_BATCHES * CHUNK..].chunks(CHUNK) {
                cli.send(&Request::Batch {
                    session: *sid,
                    events: chunk.to_vec(),
                })
                .expect("phase B send");
                expect += 1;
            }
        }
        for k in 0..expect {
            match cli.recv().expect("phase B recv") {
                Response::Batch(r) => assert_eq!(r.len(), CHUNK),
                other => panic!("phase B batch {k} answered {other:?}"),
            }
        }
        drop(cli);
        runtime.stop();

        let full_wals: Vec<Vec<u8>> = (0..SHARDS)
            .map(|s| fs::read(wal_path(s)).expect("wal readable"))
            .collect();
        let total_records: usize = full_wals.iter().map(|w| scan(w).records.len()).sum();
        assert_eq!(total_records, SESSIONS * (1 + A_BATCHES + B_BATCHES));
        assert!(
            (0..SHARDS).any(|s| full_wals[s].len() > floors[s]),
            "loops={loops}: phase B must extend at least one WAL"
        );

        // Chaos rounds: crash-copy the store with each shard's WAL cut
        // at an arbitrary byte in [floor, len] — at or past the durable
        // frontier, usually mid-record in the unsynced suffix.
        let mut rng = StdRng::seed_from_u64(0xF1A5 ^ loops as u64);
        for round in 0..6 {
            let dir = tmp(&format!("loops{loops}-round{round}"));
            fs::create_dir_all(&dir).unwrap();
            fs::copy(pristine.join("store.meta"), dir.join("store.meta")).unwrap();
            let damaged: Vec<Vec<u8>> = full_wals
                .iter()
                .zip(&floors)
                .map(|(w, &floor)| {
                    let cut = rng.gen_range(floor..=w.len());
                    w[..cut].to_vec()
                })
                .collect();
            for (s, bytes) in damaged.iter().enumerate() {
                fs::write(dir.join(format!("wal-{s}.log")), bytes).unwrap();
            }

            // Suffix-loss bounds: at least the replied-and-synced phase
            // A survives, at most the full workload.
            let survived: usize = damaged.iter().map(|w| scan(w).records.len()).sum();
            assert!(
                survived >= floor_records,
                "round {round}: cut below the durable floor lost a replied op"
            );
            assert!(survived <= total_records);

            let mut reference = replay_reference(&damaged);
            assert_eq!(reference.len(), SESSIONS, "opens all predate the floor");

            let runtime = CoreRuntime::bind("127.0.0.1:0", config(&dir)).expect("reopen");
            let recovered: u64 = runtime.recovery().iter().map(|r| r.live_sessions).sum();
            assert_eq!(
                recovered, SESSIONS as u64,
                "loops={loops} round {round}: live sessions diverge"
            );

            // Bit-identical state: continuing every session must match
            // the reference replay of the surviving prefix, op for op.
            let mut cli = TcpClient::connect(runtime.local_addr()).expect("connect");
            for (sid, _) in &sessions {
                let cont = event_log(0xC0_17 ^ (round * 101 + sid.0 as usize) as u64, 2 * CHUNK);
                let got = match cli
                    .call(&Request::Batch {
                        session: *sid,
                        events: cont.clone(),
                    })
                    .expect("continuation batch")
                {
                    Response::Batch(r) => r,
                    other => panic!("continuation answered {other:?}"),
                };
                let sess = reference.get_mut(&sid.0).expect("reference session");
                let want: Vec<_> = cont.iter().map(|ev| sess.apply(*ev)).collect();
                assert_eq!(
                    got, want,
                    "loops={loops} round {round} session {sid:?}: \
                     recovered state diverges from the surviving prefix"
                );
            }
            drop(cli);
            runtime.stop();
            fs::remove_dir_all(&dir).unwrap();
        }
        fs::remove_dir_all(&pristine).unwrap();
    }
}

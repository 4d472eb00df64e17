//! Thread-per-core fused runtime e2e: the same observable contract the
//! evloop front-end + worker shards honor, now with shards executed
//! inline on the loops. Three angles, each swept over the
//! `DELTAOS_TEST_THREADS` loop-count matrix:
//!
//! 1. Pipelined multi-connection traffic must be **bit-identical** to a
//!    single-threaded in-process replay, with the loops provably
//!    blocking in `poll(2)` (zero busy ticks) and the cross-core
//!    forwarding path provably exercised when there is more than one
//!    loop.
//! 2. A blocked `wait: true` acquire parked by one connection must be
//!    granted by another connection's release — the blocked-grant push
//!    crossing loops as a message instead of a channel send. In-process
//!    [`deltaos_service::Client`] calls park in and grant from the same
//!    waiter table, also under a pipelined WAL whose withheld replies
//!    carry the grants.
//! 3. A durable runtime stopped and reopened on the same store must
//!    recover every session bit-identically (continuing a replayed
//!    event log produces the in-process results) and never reissue a
//!    live session id; a shard that cannot recover fails the bind.

#![cfg(unix)]

use std::fs;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use deltaos_core::avoid::ReleaseOutcome;
use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    AvoidanceMode, CoreConfig, CoreRuntime, DurabilityConfig, ErrorCode, Event, EventResult,
    FsyncPolicy, Request, Response, ServiceError, Session, SessionId, TcpClient,
};
use rand::{Rng, SeedableRng, StdRng};

fn thread_counts() -> Vec<usize> {
    match std::env::var("DELTAOS_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("DELTAOS_TEST_THREADS must be a thread count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// Deterministic per-session event log (same generator family as the
/// front-end pipeline test).
fn event_log(seed: u64, resources: u16, processes: u16, len: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = Vec::with_capacity(len);
    for _ in 0..len {
        let p = ProcId(rng.gen_range(0..processes));
        let q = ResId(rng.gen_range(0..resources));
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

fn replay(resources: u16, processes: u16, log: &[Event]) -> Vec<EventResult> {
    let mut session = Session::new(resources, processes);
    log.iter().map(|ev| session.apply(*ev)).collect()
}

fn open(cli: &mut TcpClient, resources: u16, processes: u16) -> SessionId {
    match cli
        .call(&Request::Open {
            resources,
            processes,
        })
        .expect("open call")
    {
        Response::Opened(sid) => sid,
        other => panic!("open answered {other:?}"),
    }
}

fn close(cli: &mut TcpClient, sid: SessionId) {
    match cli.call(&Request::Close { session: sid }).expect("close") {
        Response::Closed => {}
        other => panic!("close answered {other:?}"),
    }
}

#[test]
fn fused_runtime_matches_in_process_replay() {
    const CONNS: usize = 32;
    const LOG_LEN: usize = 160;
    const CHUNK: usize = 8;
    const WINDOW: usize = 8;
    const DIMS: (u16, u16) = (16, 16);
    const SHARDS: usize = 4;

    for loops in thread_counts() {
        let runtime = CoreRuntime::bind(
            "127.0.0.1:0",
            CoreConfig {
                loops,
                shards: SHARDS,
                max_pipeline: 2 * WINDOW,
                ..CoreConfig::default()
            },
        )
        .expect("bind fused runtime");
        let addr = runtime.local_addr();

        let mut handles = Vec::new();
        for i in 0..CONNS {
            handles.push(thread::spawn(move || {
                let mut cli = TcpClient::connect(addr).expect("connect");
                // Two sessions per connection: the connection migrates
                // to the second session's loop, so traffic to the first
                // keeps exercising whichever of the inline / forwarded
                // paths their shard owners dictate.
                let sid_a = open(&mut cli, DIMS.0, DIMS.1);
                let sid_b = open(&mut cli, DIMS.0, DIMS.1);
                let log_a = event_log(0xC0DE ^ i as u64, DIMS.0, DIMS.1, LOG_LEN);
                let log_b = event_log(0xFACE ^ i as u64, DIMS.0, DIMS.1, LOG_LEN);

                let mut plan: Vec<(bool, Request)> = Vec::new();
                for (ca, cb) in log_a.chunks(CHUNK).zip(log_b.chunks(CHUNK)) {
                    plan.push((
                        true,
                        Request::Batch {
                            session: sid_a,
                            events: ca.to_vec(),
                        },
                    ));
                    plan.push((
                        false,
                        Request::Batch {
                            session: sid_b,
                            events: cb.to_vec(),
                        },
                    ));
                }

                let mut results_a = Vec::with_capacity(LOG_LEN);
                let mut results_b = Vec::with_capacity(LOG_LEN);
                let (mut sent, mut recvd) = (0usize, 0usize);
                while recvd < plan.len() {
                    while sent < plan.len() && sent - recvd < WINDOW {
                        cli.send(&plan[sent].1).expect("pipelined send");
                        sent += 1;
                    }
                    let resp = cli.recv().expect("pipelined recv");
                    let Response::Batch(mut r) = resp else {
                        panic!("batch {recvd} answered {resp:?}");
                    };
                    if plan[recvd].0 {
                        results_a.append(&mut r);
                    } else {
                        results_b.append(&mut r);
                    }
                    recvd += 1;
                }

                close(&mut cli, sid_a);
                close(&mut cli, sid_b);
                (log_a, results_a, log_b, results_b)
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            let (log_a, got_a, log_b, got_b) = h.join().expect("connection thread panicked");
            assert_eq!(
                got_a,
                replay(DIMS.0, DIMS.1, &log_a),
                "loops={loops}: conn {i} session A diverged from in-process replay"
            );
            assert_eq!(
                got_b,
                replay(DIMS.0, DIMS.1, &log_b),
                "loops={loops}: conn {i} session B diverged from in-process replay"
            );
        }

        // A quiet prober connection whose two consecutively allocated
        // sessions land on different shard owners (ids differ by one,
        // shards > 1): after the second open migrates the connection,
        // a batch to the *first* session is forwarded cross-core by
        // construction whenever there is more than one loop.
        let mut prober = TcpClient::connect(addr).expect("prober connect");
        let sid_a = open(&mut prober, DIMS.0, DIMS.1);
        let sid_b = open(&mut prober, DIMS.0, DIMS.1);
        assert_eq!(sid_b.0, sid_a.0 + 1, "prober opens must be consecutive");
        match prober
            .call(&Request::Batch {
                session: sid_a,
                events: vec![Event::Probe],
            })
            .expect("prober batch")
        {
            Response::Batch(r) => assert_eq!(r.len(), 1),
            other => panic!("prober batch answered {other:?}"),
        }
        close(&mut prober, sid_a);
        close(&mut prober, sid_b);

        // The wire `Stats` op must expose one row per loop.
        let mut observer = TcpClient::connect(addr).expect("observer connect");
        let (shards, frontend, cores) = match observer.call(&Request::Stats).expect("stats") {
            Response::Stats {
                shards,
                frontend,
                cores,
            } => (shards, frontend, cores),
            other => panic!("stats answered {other:?}"),
        };
        assert_eq!(shards.len(), SHARDS, "loops={loops}: one row per shard");
        assert_eq!(cores.len(), loops, "loops={loops}: one row per loop");
        let fe = frontend.expect("fused runtime reports front-end counters");
        assert_eq!(fe.desynced, 0, "well-formed traffic must never desync");
        assert_eq!(fe.busy_replies, 0, "window fits the cap; no Busy");

        let inline: u64 = cores.iter().map(|c| c.inline_ops).sum();
        let forwards: u64 = cores.iter().map(|c| c.cross_core_forwards).sum();
        let busy_ticks: u64 = cores.iter().map(|c| c.busy_poll_ticks).sum();
        assert!(inline > 0, "loops={loops}: inline fast path never taken");
        assert_eq!(
            busy_ticks, 0,
            "loops={loops}: loops must block in poll(2), never tick while \
             cross-core work is in flight"
        );
        if loops > 1 {
            assert!(
                forwards > 0,
                "loops={loops}: prober guarantees at least one forward"
            );
            let migrations: u64 = cores.iter().map(|c| c.migrations_in).sum();
            assert!(
                migrations > 0,
                "loops={loops}: prober guarantees at least one migration"
            );
        } else {
            assert_eq!(forwards, 0, "a single loop owns every shard");
        }

        runtime.stop();
    }
}

/// Polls the wire `Stats` op until some broker session has a waiter.
fn wait_for_waiter(cli: &mut TcpClient, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let waiters = match cli.call(&Request::Stats).unwrap() {
            Response::Stats { shards, .. } => shards.iter().map(|s| s.broker_waiters).sum::<u64>(),
            other => panic!("unexpected {other:?}"),
        };
        if waiters >= 1 {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: waiter never queued");
        thread::sleep(Duration::from_millis(2));
    }
}

const GRANTED: Response = Response::Granted {
    cycles: 0,
    probes: 0,
};

#[test]
fn blocked_grant_pushes_across_connections_and_loops() {
    // Every loop count memory-only, then the widest once more under a
    // pipelined WAL, so every grant below rides a withheld LSN.
    let widest = thread_counts().into_iter().max().unwrap();
    let wal_dir = tmp("grants-pipelined");
    let runs = thread_counts()
        .into_iter()
        .map(|loops| (loops, None))
        .chain(std::iter::once((
            widest,
            Some(DurabilityConfig {
                dir: wal_dir.clone(),
                fsync: FsyncPolicy::Pipelined {
                    max_records: 64,
                    deadline: Duration::from_millis(2),
                },
                checkpoint_every_records: u64::MAX,
                checkpoint_on_shutdown: false,
                repl_ack: false,
            }),
        )));
    for (loops, durability) in runs {
        let what = format!("loops={loops} durable={}", durability.is_some());
        let runtime = CoreRuntime::bind(
            "127.0.0.1:0",
            CoreConfig {
                loops,
                shards: 2,
                durability,
                ..CoreConfig::default()
            },
        )
        .expect("bind fused runtime");
        let mut a = TcpClient::connect(runtime.local_addr()).unwrap();
        let mut b = TcpClient::connect(runtime.local_addr()).unwrap();

        let sid = match a
            .call(&Request::OpenAvoid {
                resources: 2,
                processes: 2,
                mode: AvoidanceMode::FastPath,
            })
            .unwrap()
        {
            Response::Opened(sid) => sid,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            a.call(&Request::Acquire {
                session: sid,
                p: ProcId(0),
                q: ResId(0),
                wait: false,
            })
            .unwrap(),
            Response::Granted {
                cycles: 0,
                probes: 0
            }
        );

        // B pipelines a waiting acquire for the held resource and a
        // plain one for the free resource behind it; the second reply
        // must not overtake the parked first.
        b.send(&Request::Acquire {
            session: sid,
            p: ProcId(1),
            q: ResId(0),
            wait: true,
        })
        .unwrap();
        b.send(&Request::Acquire {
            session: sid,
            p: ProcId(1),
            q: ResId(1),
            wait: false,
        })
        .unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let waiters = match a.call(&Request::Stats).unwrap() {
                Response::Stats { shards, .. } => {
                    shards.iter().map(|s| s.broker_waiters).sum::<u64>()
                }
                other => panic!("unexpected {other:?}"),
            };
            if waiters >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "loops={loops}: waiter never queued"
            );
            thread::sleep(Duration::from_millis(2));
        }

        let resp = a
            .call(&Request::BrokerRelease {
                session: sid,
                p: ProcId(0),
                q: ResId(0),
            })
            .unwrap();
        match resp {
            Response::Resolved {
                outcome: ReleaseOutcome::GrantedTo { process, .. },
                ..
            } => assert_eq!(process, ProcId(1), "loops={loops}"),
            other => panic!("loops={loops}: release must hand off, got {other:?}"),
        }

        // B's parked slot fills asynchronously (a cross-loop push when
        // B lives on a different loop than the session's shard); both
        // replies arrive in submission order.
        for k in 0..2 {
            assert_eq!(
                b.recv().unwrap(),
                Response::Granted {
                    cycles: 0,
                    probes: 0
                },
                "loops={loops}: pipelined acquire {k}"
            );
        }

        // The in-process handle parks in the same waiter table. Its
        // session takes the next id, hence the other shard: with more
        // than one loop, A's release below is forwarded to that shard's
        // loop and the grant crosses back to the blocked caller.
        let client = runtime.client();
        let sid2 = client
            .open_avoid(2, 2, AvoidanceMode::FastPath)
            .expect("in-process open");
        assert_eq!(
            client.acquire(sid2, ProcId(0), ResId(0), false),
            Ok(GRANTED),
            "{what}"
        );
        let parked = thread::spawn({
            let client = client.clone();
            move || client.acquire(sid2, ProcId(1), ResId(0), true)
        });
        wait_for_waiter(&mut a, &what);
        match a
            .call(&Request::BrokerRelease {
                session: sid2,
                p: ProcId(0),
                q: ResId(0),
            })
            .unwrap()
        {
            Response::Resolved {
                outcome: ReleaseOutcome::GrantedTo { process, .. },
                ..
            } => assert_eq!(process, ProcId(1), "{what}"),
            other => panic!("{what}: wire release must hand off, got {other:?}"),
        }
        assert_eq!(
            parked.join().expect("parked caller"),
            Ok(GRANTED),
            "{what}: in-process waiter granted by a wire release"
        );

        // A parked wire acquire is granted by an in-process release.
        b.send(&Request::Acquire {
            session: sid2,
            p: ProcId(0),
            q: ResId(0),
            wait: true,
        })
        .unwrap();
        wait_for_waiter(&mut a, &what);
        match client.broker_release(sid2, ProcId(1), ResId(0)) {
            Ok(Response::Resolved {
                outcome: ReleaseOutcome::GrantedTo { process, .. },
                ..
            }) => assert_eq!(process, ProcId(0), "{what}"),
            other => panic!("{what}: in-process release must hand off, got {other:?}"),
        }
        assert_eq!(b.recv().unwrap(), GRANTED, "{what}: wire waiter granted");

        // Closing the session through the handle fails a parked wire
        // waiter instead of leaving it hanging.
        b.send(&Request::Acquire {
            session: sid2,
            p: ProcId(1),
            q: ResId(0),
            wait: true,
        })
        .unwrap();
        wait_for_waiter(&mut a, &what);
        client.close(sid2).expect("in-process close");
        assert_eq!(
            b.recv().unwrap(),
            Response::Error(ErrorCode::UnknownSession),
            "{what}: waiter on a closed session"
        );

        close(&mut a, sid);
        drop(b);
        runtime.stop();
        assert_eq!(
            client.acquire(sid, ProcId(0), ResId(0), true),
            Err(ServiceError::Shutdown),
            "{what}: calls after stop fail instead of hanging"
        );
    }
    let _ = fs::remove_dir_all(&wal_dir);
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deltaos-core-runtime-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_runtime_recovers_bit_identical_across_restart() {
    const DIMS: (u16, u16) = (12, 12);
    const SESSIONS: usize = 6;
    const PREFIX: usize = 80;
    const SUFFIX: usize = 40;

    for loops in thread_counts() {
        let dir = tmp(&format!("loops{loops}"));
        let config = || CoreConfig {
            loops,
            shards: 2,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Pipelined {
                    max_records: 1,
                    deadline: Duration::from_micros(500),
                },
                // Small enough that the run crosses checkpoint
                // boundaries, so recovery exercises checkpoint + WAL
                // tail replay, not just one of them.
                checkpoint_every_records: 16,
                checkpoint_on_shutdown: false,
                repl_ack: false,
            }),
            ..CoreConfig::default()
        };

        // Phase 1: open sessions, apply the log prefix, stop.
        let runtime = CoreRuntime::bind("127.0.0.1:0", config()).expect("bind durable runtime");
        let mut cli = TcpClient::connect(runtime.local_addr()).unwrap();
        let mut sessions = Vec::new();
        for s in 0..SESSIONS {
            let sid = open(&mut cli, DIMS.0, DIMS.1);
            let log = event_log(
                0xD0_0D ^ (loops * 31 + s) as u64,
                DIMS.0,
                DIMS.1,
                PREFIX + SUFFIX,
            );
            match cli
                .call(&Request::Batch {
                    session: sid,
                    events: log[..PREFIX].to_vec(),
                })
                .expect("prefix batch")
            {
                Response::Batch(r) => assert_eq!(r.len(), PREFIX),
                other => panic!("prefix batch answered {other:?}"),
            }
            sessions.push((sid, log));
        }
        let max_live = sessions.iter().map(|(sid, _)| sid.0).max().unwrap();
        drop(cli);
        runtime.stop();

        // Phase 2: reopen on the same store. Recovery must surface the
        // live sessions and continuing each log must match a clean
        // in-process replay of the *whole* log — i.e. the recovered
        // engine state is bit-identical to never having crashed.
        let runtime = CoreRuntime::bind("127.0.0.1:0", config()).expect("reopen durable runtime");
        let recovered: u64 = runtime.recovery().iter().map(|r| r.live_sessions).sum();
        assert_eq!(
            recovered, SESSIONS as u64,
            "loops={loops}: every open session must survive the restart"
        );
        let mut cli = TcpClient::connect(runtime.local_addr()).unwrap();
        for (sid, log) in &sessions {
            let got = match cli
                .call(&Request::Batch {
                    session: *sid,
                    events: log[PREFIX..].to_vec(),
                })
                .expect("suffix batch")
            {
                Response::Batch(r) => r,
                other => panic!("loops={loops}: suffix batch answered {other:?}"),
            };
            assert_eq!(
                got,
                replay(DIMS.0, DIMS.1, log)[PREFIX..],
                "loops={loops}: session {sid:?} diverged after recovery"
            );
        }
        // Live ids are never reissued: the allocator restarts above the
        // recovered high-water mark.
        let fresh = open(&mut cli, DIMS.0, DIMS.1);
        assert!(
            fresh.0 > max_live,
            "loops={loops}: fresh id {fresh:?} collides with recovered ids"
        );
        for (sid, _) in &sessions {
            close(&mut cli, *sid);
        }
        close(&mut cli, fresh);
        drop(cli);
        runtime.stop();
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn bind_fails_when_a_shard_cannot_recover() {
    for loops in [1usize, 2] {
        let dir = tmp(&format!("bad-checkpoint-loops{loops}"));
        let config = CoreConfig {
            loops,
            shards: 2,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Pipelined {
                    max_records: 1,
                    deadline: Duration::from_micros(500),
                },
                checkpoint_every_records: u64::MAX,
                checkpoint_on_shutdown: false,
                repl_ack: false,
            }),
            ..CoreConfig::default()
        };
        // Lay the 2-shard store out cleanly, then ruin shard 1.
        CoreRuntime::bind("127.0.0.1:0", config.clone())
            .expect("clean bind")
            .stop();
        fs::write(dir.join("checkpoint-1.snap"), b"garbage, not a checkpoint").unwrap();

        // Bind on a helper thread: a hang must fail the test, not stall
        // the suite.
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            let _ = tx.send(CoreRuntime::bind("127.0.0.1:0", config).map(drop));
        });
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("loops={loops}: bind hung on a failed recovery"))
            .expect_err("bind must fail when a shard cannot recover");
        helper.join().expect("bind helper thread");
        assert!(
            err.to_string().contains("shard 1"),
            "loops={loops}: error must name the failed shard: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

//! End-to-end checks of the deadlock-avoidance broker over TCP: the
//! paper's golden metered cycle counts must survive the wire unchanged,
//! and a `wait`ing Acquire blocked on one connection must be granted
//! asynchronously when another connection releases the resource —
//! through the runtime's pipelined-reply path, at every shard
//! parallelism the CI matrix exercises.

#![cfg(unix)]

use std::time::{Duration, Instant};

use deltaos::core::daa::SwDaa;
use deltaos::core::par::ParConfig;
use deltaos::core::{Priority, ProcId, ResId};
use deltaos::service::{
    AvoidanceMode, CoreConfig, CoreRuntime, ErrorCode, Request, Response, SessionId, TcpClient,
};

/// The metered trace behind `core::daa`'s Table 7/9 regression guard:
/// grant, pending, R-dl (owner ask + requester shed), release hand-off
/// and G-dl dodge paths on a 5×5 session with priorities `i + 1`.
const TRACE: &[(bool, u16, u16)] = &[
    (true, 1, 1),
    (true, 0, 0),
    (true, 1, 0),
    (true, 0, 1),
    (false, 1, 1),
    (true, 2, 3),
    (true, 2, 1),
    (true, 1, 3),
    (false, 0, 1),
    (false, 0, 0),
    (false, 2, 3),
];

/// Golden per-command MPC755 cycle counts for `TRACE` — the same table
/// `core::daa` pins. Deterministic instruction counts, stable across
/// platforms; the broker must never shift them.
const GOLDEN_CYCLES: &[u64] = &[104, 104, 1289, 665, 975, 104, 1334, 1334, 1038, 1326, 1030];

/// Shard parallelism under test: {1, 2, 8}, or the single count pinned
/// by `DELTAOS_TEST_THREADS` (the CI matrix).
fn thread_counts() -> Vec<usize> {
    match std::env::var("DELTAOS_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("DELTAOS_TEST_THREADS must be a thread count")],
        Err(_) => vec![1, 2, 8],
    }
}

fn config(threads: usize) -> CoreConfig {
    CoreConfig {
        shards: 4,
        par: ParConfig {
            threads,
            ..ParConfig::default()
        },
        ..CoreConfig::default()
    }
}

fn broker_cycles(resp: &Response) -> u64 {
    match resp {
        Response::Granted { cycles, .. }
        | Response::Deferred { cycles, .. }
        | Response::GiveUp { cycles, .. }
        | Response::Resolved { cycles, .. } => *cycles,
        other => panic!("not a broker decision: {other:?}"),
    }
}

/// The golden-cycles regression guard through the wire: replaying the
/// metered trace over a TCP broker session must report, command for
/// command, the exact cycle counts of an in-process [`SwDaa`] run — and
/// both must match the pinned golden table.
#[test]
fn golden_cycles_survive_the_tcp_broker_byte_identical() {
    for threads in thread_counts() {
        let server = CoreRuntime::bind("127.0.0.1:0", config(threads)).unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();

        let sid = match client
            .call(&Request::OpenAvoid {
                resources: 5,
                processes: 5,
                mode: AvoidanceMode::Metered,
            })
            .unwrap()
        {
            Response::Opened(sid) => sid,
            other => panic!("unexpected {other:?}"),
        };
        let mut reference = SwDaa::new(5, 5);
        for i in 0..5u16 {
            reference.set_priority(ProcId(i), Priority::new(i as u8 + 1));
            assert_eq!(
                client
                    .call(&Request::SetPriority {
                        session: sid,
                        p: ProcId(i),
                        priority: Priority::new(i as u8 + 1),
                    })
                    .unwrap(),
                Response::Ack
            );
        }

        let mut wire_cycles = Vec::new();
        let mut local_cycles = Vec::new();
        for &(is_req, pi, qi) in TRACE {
            let (p, q) = (ProcId(pi), ResId(qi));
            let (resp, local) = if is_req {
                (
                    client
                        .call(&Request::Acquire {
                            session: sid,
                            p,
                            q,
                            wait: false,
                        })
                        .unwrap(),
                    reference.request(p, q).unwrap().cycles,
                )
            } else {
                (
                    client
                        .call(&Request::BrokerRelease { session: sid, p, q })
                        .unwrap(),
                    reference.release(p, q).unwrap().cycles,
                )
            };
            wire_cycles.push(broker_cycles(&resp));
            local_cycles.push(local);
        }
        assert_eq!(
            wire_cycles, GOLDEN_CYCLES,
            "threads={threads}: metered cycles shifted over the wire — Table 7/9 regression"
        );
        assert_eq!(
            wire_cycles, local_cycles,
            "threads={threads}: wire and in-process metering diverged"
        );

        // Raw batches are refused on a broker session — and vice versa
        // the typed error survives the wire.
        assert_eq!(
            client
                .call(&Request::Batch {
                    session: sid,
                    events: vec![deltaos::service::Event::Probe],
                })
                .unwrap(),
            Response::Error(ErrorCode::AvoidanceOn)
        );

        server.stop();
    }
}

/// The asynchronous-grant e2e: connection B's `wait`ing Acquire parks
/// inside the runtime (no reply), and connection A's
/// release pushes the grant to B through the pipelined-reply path. A
/// request B pipelines *behind* the parked acquire is answered after it,
/// in submission order.
#[test]
fn blocked_acquire_is_granted_by_another_connections_release() {
    for threads in thread_counts() {
        let server = CoreRuntime::bind("127.0.0.1:0", config(threads)).unwrap();
        let mut a = TcpClient::connect(server.local_addr()).unwrap();
        let mut b = TcpClient::connect(server.local_addr()).unwrap();

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
        // plain one for the free resource behind it, then A waits until
        // the shard reports the queued waiter before releasing.
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
                "threads={threads}: waiter never queued"
            );
            std::thread::sleep(Duration::from_millis(2));
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
                outcome: deltaos::core::avoid::ReleaseOutcome::GrantedTo { process, .. },
                ..
            } => assert_eq!(process, ProcId(1)),
            other => panic!("release must hand off to the waiter, got {other:?}"),
        }

        // B's parked slot is filled asynchronously; both replies arrive
        // in submission order.
        assert_eq!(
            b.recv().unwrap(),
            Response::Granted {
                cycles: 0,
                probes: 0
            }
        );
        assert_eq!(
            b.recv().unwrap(),
            Response::Granted {
                cycles: 0,
                probes: 0
            }
        );

        // Cross-connection close still drains cleanly.
        assert_eq!(
            a.call(&Request::Close { session: sid }).unwrap(),
            Response::Closed
        );
        drop(b);
        server.stop();
    }
}

/// Two sessions deadlocking each other's processes: the second acquire
/// closing the cycle must come back as a GiveUp ask naming the shed set,
/// and acknowledging it releases the resources so the survivor finishes.
#[test]
fn rdl_give_up_ack_unblocks_the_survivor_over_tcp() {
    let server = CoreRuntime::bind("127.0.0.1:0", config(1)).unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let sid = match client
        .call(&Request::OpenAvoid {
            resources: 2,
            processes: 2,
            mode: AvoidanceMode::Metered,
        })
        .unwrap()
    {
        Response::Opened(sid) => sid,
        other => panic!("unexpected {other:?}"),
    };
    // p0 outranks p1, so when p0's request closes the cycle the *owner*
    // p1 is asked to give up.
    for (i, level) in [(0u16, 1u8), (1, 2)] {
        client
            .call(&Request::SetPriority {
                session: sid,
                p: ProcId(i),
                priority: Priority::new(level),
            })
            .unwrap();
    }
    let acquire = |client: &mut TcpClient, p: u16, q: u16| {
        client
            .call(&Request::Acquire {
                session: sid,
                p: ProcId(p),
                q: ResId(q),
                wait: false,
            })
            .unwrap()
    };
    assert!(matches!(
        acquire(&mut client, 0, 0),
        Response::Granted { .. }
    ));
    assert!(matches!(
        acquire(&mut client, 1, 1),
        Response::Granted { .. }
    ));
    assert!(matches!(
        acquire(&mut client, 1, 0),
        Response::Deferred { .. }
    ));
    let ask = match acquire(&mut client, 0, 1) {
        Response::GiveUp { ask, .. } => ask,
        other => panic!("closing the cycle must ask a give-up, got {other:?}"),
    };
    assert_eq!(ask.target, ProcId(1));
    assert_eq!(ask.resources, vec![ResId(1)]);

    // The asked owner sheds: its grant hands q1 to the parked p0.
    let resp = client
        .call(&Request::GiveUpAck {
            session: sid,
            p: ProcId(1),
        })
        .unwrap();
    match resp {
        Response::Resolved {
            outcome: deltaos::core::avoid::ReleaseOutcome::GrantedTo { process, .. },
            ..
        } => assert_eq!(process, ProcId(0)),
        other => panic!("ack must hand the resource to the survivor, got {other:?}"),
    }

    server.stop();
}

/// Plain sessions refuse broker commands with the matching typed error,
/// and `Off`-mode avoidance sessions behave as plain probe sessions.
#[test]
fn avoidance_off_is_a_plain_session_and_mixing_is_rejected() {
    let server = CoreRuntime::bind("127.0.0.1:0", config(1)).unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let off = match client
        .call(&Request::OpenAvoid {
            resources: 2,
            processes: 2,
            mode: AvoidanceMode::Off,
        })
        .unwrap()
    {
        Response::Opened(sid) => sid,
        other => panic!("unexpected {other:?}"),
    };
    // Probe-only: raw batches work...
    assert!(matches!(
        client
            .call(&Request::Batch {
                session: off,
                events: vec![deltaos::service::Event::Probe],
            })
            .unwrap(),
        Response::Batch(_)
    ));
    // ...and broker commands answer AvoidanceOff.
    assert_eq!(
        client
            .call(&Request::Acquire {
                session: off,
                p: ProcId(0),
                q: ResId(0),
                wait: false,
            })
            .unwrap(),
        Response::Error(ErrorCode::AvoidanceOff)
    );
    assert_eq!(
        client
            .call(&Request::Acquire {
                session: SessionId(987_654),
                p: ProcId(0),
                q: ResId(0),
                wait: false,
            })
            .unwrap(),
        Response::Error(ErrorCode::UnknownSession)
    );

    server.stop();
}

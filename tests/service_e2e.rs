//! End-to-end service check through the facade crate: a TCP client
//! conversation against a live sharded service, including error paths
//! and a malformed-frame probe against the decoder.

#![cfg(unix)]

use std::net::TcpStream;

use deltaos::core::{ProcId, ResId};
use deltaos::service::{
    CoreConfig, CoreRuntime, ErrorCode, Event, EventResult, Request, Response, SessionId, TcpClient,
};

const SHARDS: usize = 4;

fn start() -> CoreRuntime {
    let config = CoreConfig {
        shards: SHARDS,
        ..CoreConfig::default()
    };
    CoreRuntime::bind("127.0.0.1:0", config).unwrap()
}

#[test]
fn tcp_round_trip_detects_deadlock_and_reports_stats() {
    let server = start();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let sid = match client
        .call(&Request::Open {
            resources: 8,
            processes: 8,
        })
        .unwrap()
    {
        Response::Opened(sid) => sid,
        other => panic!("unexpected {other:?}"),
    };

    let resp = client
        .call(&Request::Batch {
            session: sid,
            events: vec![
                Event::Grant {
                    q: ResId(0),
                    p: ProcId(0),
                },
                Event::Grant {
                    q: ResId(1),
                    p: ProcId(1),
                },
                Event::Request {
                    p: ProcId(0),
                    q: ResId(1),
                },
                Event::Request {
                    p: ProcId(1),
                    q: ResId(0),
                },
                Event::Probe,
            ],
        })
        .unwrap();
    match resp {
        Response::Batch(results) => {
            assert_eq!(results.len(), 5);
            match results[4] {
                EventResult::Outcome(o) => assert!(o.deadlock, "2-cycle must be detected"),
                ref other => panic!("unexpected {other:?}"),
            }
        }
        other => panic!("unexpected {other:?}"),
    }

    // Error paths stay typed over the wire.
    assert_eq!(
        client
            .call(&Request::Batch {
                session: SessionId(9999),
                events: vec![Event::Probe],
            })
            .unwrap(),
        Response::Error(ErrorCode::UnknownSession)
    );
    assert_eq!(
        client
            .call(&Request::Open {
                resources: 0,
                processes: 8,
            })
            .unwrap(),
        Response::Error(ErrorCode::BadDimensions)
    );

    // Stats reflect the session's traffic.
    match client.call(&Request::Stats).unwrap() {
        Response::Stats { shards, .. } => {
            assert_eq!(shards.len(), SHARDS);
            let events: u64 = shards.iter().map(|s| s.events).sum();
            let probes: u64 = shards.iter().map(|s| s.probes).sum();
            assert_eq!(events, 5);
            assert_eq!(probes, 1);
        }
        other => panic!("unexpected {other:?}"),
    }

    assert_eq!(
        client.call(&Request::Close { session: sid }).unwrap(),
        Response::Closed
    );

    let per_shard = server.stop();
    let closed: u64 = per_shard
        .iter()
        .map(|s| s.counter("service.sessions_closed"))
        .sum();
    assert_eq!(closed, 1);
}

#[test]
fn tcp_snapshot_restore_roundtrip() {
    let server = start();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let sid = match client
        .call(&Request::Open {
            resources: 4,
            processes: 4,
        })
        .unwrap()
    {
        Response::Opened(sid) => sid,
        other => panic!("unexpected {other:?}"),
    };
    let probe_outcome = |client: &mut TcpClient, sid| match client
        .call(&Request::Batch {
            session: sid,
            events: vec![Event::Probe],
        })
        .unwrap()
    {
        Response::Batch(results) => match results[0] {
            EventResult::Outcome(o) => o,
            ref other => panic!("unexpected {other:?}"),
        },
        other => panic!("unexpected {other:?}"),
    };
    client
        .call(&Request::Batch {
            session: sid,
            events: vec![
                Event::Grant {
                    q: ResId(0),
                    p: ProcId(0),
                },
                Event::Grant {
                    q: ResId(1),
                    p: ProcId(1),
                },
                Event::Request {
                    p: ProcId(0),
                    q: ResId(1),
                },
                Event::Request {
                    p: ProcId(1),
                    q: ResId(0),
                },
            ],
        })
        .unwrap();
    let original = probe_outcome(&mut client, sid);
    assert!(original.deadlock);

    // Snapshot over the wire, restore it as a new session, and check the
    // clone answers exactly like the original.
    let blob = match client.call(&Request::Snapshot { session: sid }).unwrap() {
        Response::Snapshot(blob) => blob,
        other => panic!("unexpected {other:?}"),
    };
    let copy = match client.call(&Request::Restore { snapshot: blob }).unwrap() {
        Response::Opened(copy) => copy,
        other => panic!("unexpected {other:?}"),
    };
    assert_ne!(copy, sid);
    assert_eq!(probe_outcome(&mut client, copy), original);

    // Error paths stay typed over the wire.
    assert_eq!(
        client
            .call(&Request::Snapshot {
                session: SessionId(424242)
            })
            .unwrap(),
        Response::Error(ErrorCode::UnknownSession)
    );
    assert_eq!(
        client
            .call(&Request::Restore {
                snapshot: vec![0xEE; 32]
            })
            .unwrap(),
        Response::Error(ErrorCode::InvalidSnapshot)
    );

    server.stop();
}

#[test]
fn malformed_frames_get_in_band_errors_and_never_kill_the_service() {
    use std::io::{Read, Write};

    let server = start();

    // A raw socket sending a well-framed but garbage payload: the server
    // answers with a typed BadRequest error and keeps the stream alive.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let garbage = [0x7Fu8, 0xAA, 0xBB];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    let mut prefix = [0u8; 4];
    raw.read_exact(&mut prefix).unwrap();
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    raw.read_exact(&mut payload).unwrap();
    assert_eq!(
        deltaos::service::proto::decode_response(&payload).unwrap(),
        Response::Error(ErrorCode::BadRequest)
    );

    // The same connection still serves valid requests afterwards.
    let valid = deltaos::service::proto::encode_request(&Request::Stats);
    raw.write_all(&(valid.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&valid).unwrap();
    raw.read_exact(&mut prefix).unwrap();
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    raw.read_exact(&mut payload).unwrap();
    assert!(matches!(
        deltaos::service::proto::decode_response(&payload).unwrap(),
        Response::Stats { .. }
    ));

    // A fresh client still works too — the service survived the abuse.
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client
            .call(&Request::Open {
                resources: 4,
                processes: 4
            })
            .unwrap(),
        Response::Opened(_)
    ));

    server.stop();
}

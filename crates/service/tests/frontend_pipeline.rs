//! Runtime front-end e2e: many concurrent connections pipelining
//! batches to sessions spread across shards and loops, with replies
//! completing out of submission order *across* connections, must each
//! observe exactly the results of a single-threaded in-process replay.
//! Plus the two bounded-resource contracts: the per-connection pipeline
//! cap answering `Busy` in-band (and applying nothing), and the
//! idle/partial-frame reapers; and two read-path edges: request frames
//! larger than one socket read, and a client that half-closes with
//! requests still in flight.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use deltaos_core::{ProcId, ResId};
use deltaos_service::proto::{decode_response, encode_request, read_frame_into};
use deltaos_service::{
    CoreConfig, CoreRuntime, ErrorCode, Event, EventResult, Request, Response, Session, SessionId,
    TcpClient,
};
use rand::{Rng, SeedableRng, StdRng};

/// Deterministic per-session event log (same generator family as the
/// in-process concurrency test).
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

/// The requests as one length-prefixed byte stream.
fn framed(reqs: &[&Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for req in reqs {
        let payload = encode_request(req);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    wire
}

fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    read_frame_into(stream, buf).expect("read reply frame");
    decode_response(buf).expect("decode reply")
}

#[test]
fn pipelined_connections_match_in_process_replay() {
    const CONNS: usize = 64;
    const LOG_LEN: usize = 160;
    const CHUNK: usize = 8;
    const WINDOW: usize = 8; // in-flight batch frames per connection
    const DIMS: (u16, u16) = (16, 16);

    // Sized so `Busy` is impossible by construction: each connection
    // keeps at most WINDOW batches in flight, half the pipeline cap.
    let server = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            loops: 2,
            shards: 4,
            max_sessions_per_shard: 64,
            max_pipeline: 2 * WINDOW,
            ..CoreConfig::default()
        },
    )
    .expect("bind runtime");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for i in 0..CONNS {
        handles.push(thread::spawn(move || {
            let mut cli = TcpClient::connect(addr).expect("connect");
            // Two sessions per connection: their ids land on different
            // shards, so this connection's pipelined replies genuinely
            // complete out of order service-side and must be re-matched
            // by the front-end's per-connection FIFO.
            let sid_a = open(&mut cli, DIMS.0, DIMS.1);
            let sid_b = open(&mut cli, DIMS.0, DIMS.1);
            let log_a = event_log(0x5EED ^ i as u64, DIMS.0, DIMS.1, LOG_LEN);
            let log_b = event_log(0xB0B ^ i as u64, DIMS.0, DIMS.1, LOG_LEN);

            // Interleave chunks a0, b0, a1, b1, … in one pipeline.
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

            for sid in [sid_a, sid_b] {
                match cli.call(&Request::Close { session: sid }).expect("close") {
                    Response::Closed => {}
                    other => panic!("close answered {other:?}"),
                }
            }
            (log_a, results_a, log_b, results_b)
        }));
    }

    for (i, h) in handles.into_iter().enumerate() {
        let (log_a, got_a, log_b, got_b) = h.join().expect("connection thread panicked");
        assert_eq!(
            got_a,
            replay(DIMS.0, DIMS.1, &log_a),
            "conn {i} session A diverged from in-process replay"
        );
        assert_eq!(
            got_b,
            replay(DIMS.0, DIMS.1, &log_b),
            "conn {i} session B diverged from in-process replay"
        );
    }

    let stats = server.frontend_stats();
    assert_eq!(stats.accepted, CONNS as u64);
    assert_eq!(stats.desynced, 0, "well-formed traffic must never desync");
    assert_eq!(
        stats.busy_replies, 0,
        "the pipeline window fits the cap; no in-band Busy expected"
    );
    assert_eq!(
        stats.frames_in, stats.replies_out,
        "every request frame gets exactly one reply"
    );
    server.stop();
}

#[test]
fn pipeline_cap_answers_busy_without_losing_sync() {
    let server = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 1,
            max_dim: 96,
            max_pipeline: 1,
            ..CoreConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let call = |stream: &mut TcpStream, req: &Request| -> Response {
        let payload = encode_request(req);
        let mut wire = Vec::with_capacity(payload.len() + 4);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        stream.write_all(&wire).unwrap();
        let mut buf = Vec::new();
        read_frame_into(stream, &mut buf).unwrap();
        decode_response(&buf).unwrap()
    };

    let Response::Opened(sid) = call(
        &mut stream,
        &Request::Open {
            resources: 96,
            processes: 96,
        },
    ) else {
        panic!("open failed");
    };

    // A deliberately slow first batch: a 95-link grant/request chain,
    // then repeated avoidance probes — each mutates the RAG, so every
    // probe re-reduces the 96×96 matrix (the chain is the reduction's
    // worst case, one link per iteration). The owning loop is pinned
    // on this for milliseconds.
    let mut slow = Vec::new();
    for i in 0..95u16 {
        slow.push(Event::Grant {
            q: ResId(i),
            p: ProcId(i),
        });
        slow.push(Event::Request {
            p: ProcId(i),
            q: ResId(i + 1),
        });
    }
    for _ in 0..16 {
        slow.push(Event::WouldDeadlock {
            p: ProcId(95),
            q: ResId(0),
        });
    }
    let slow_len = slow.len();
    let probe = Request::Batch {
        session: sid,
        events: vec![Event::Probe],
    };

    // One write carrying the slow batch plus three pipelined probes.
    // With `max_pipeline: 1` the slow batch occupies the whole window,
    // so all three probes must answer `Busy` in-band, in order.
    let mut wire = Vec::new();
    for req in [
        &Request::Batch {
            session: sid,
            events: slow,
        },
        &probe,
        &probe,
        &probe,
    ] {
        let payload = encode_request(req);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    stream.write_all(&wire).unwrap();

    let mut buf = Vec::new();
    read_frame_into(&mut stream, &mut buf).unwrap();
    match decode_response(&buf).unwrap() {
        Response::Batch(r) => assert_eq!(r.len(), slow_len),
        other => panic!("slow batch answered {other:?}"),
    }
    for k in 0..3 {
        read_frame_into(&mut stream, &mut buf).unwrap();
        assert_eq!(
            decode_response(&buf).unwrap(),
            Response::Busy,
            "pipelined probe {k} beyond the cap must answer Busy"
        );
    }

    // Busy consumed nothing and the stream stayed framed: the same
    // probe now succeeds.
    match call(&mut stream, &probe) {
        Response::Batch(r) => assert_eq!(r.len(), 1),
        other => panic!("post-Busy probe answered {other:?}"),
    }

    assert_eq!(server.frontend_stats().busy_replies, 3);
    assert_eq!(server.frontend_stats().desynced, 0);

    // A request answered `Busy` applies nothing. One write carries a
    // probe batch and then a mutating `Grant` batch; the probe batch
    // runs inline and fills the one-deep window, so the grant — read in
    // the same pass — must bounce, and only the probes may be counted.
    let events = |stream: &mut TcpStream| -> u64 {
        match call(stream, &Request::Stats) {
            Response::Stats { shards, .. } => shards.iter().map(|s| s.events).sum(),
            other => panic!("stats answered {other:?}"),
        }
    };
    let before = events(&mut stream);
    let probes = vec![Event::Probe; 4];
    let mut wire = Vec::new();
    for req in [
        &Request::Batch {
            session: sid,
            events: probes.clone(),
        },
        &Request::Batch {
            session: sid,
            events: vec![Event::Grant {
                q: ResId(95),
                p: ProcId(95),
            }],
        },
    ] {
        let payload = encode_request(req);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    stream.write_all(&wire).unwrap();
    read_frame_into(&mut stream, &mut buf).unwrap();
    match decode_response(&buf).unwrap() {
        Response::Batch(r) => assert_eq!(r.len(), probes.len()),
        other => panic!("probe batch answered {other:?}"),
    }
    read_frame_into(&mut stream, &mut buf).unwrap();
    assert_eq!(
        decode_response(&buf).unwrap(),
        Response::Busy,
        "the grant beyond the cap must answer Busy"
    );
    assert_eq!(
        events(&mut stream),
        before + probes.len() as u64,
        "a Busy-answered grant must not be applied"
    );
    assert_eq!(server.frontend_stats().busy_replies, 4);
    server.stop();
}

#[test]
fn idle_and_slow_loris_connections_are_reaped() {
    let server = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 1,
            idle_timeout: Duration::from_millis(300),
            partial_frame_deadline: Duration::from_millis(120),
            ..CoreConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // An idle connection: connects, then says nothing at all.
    let _idle = TcpStream::connect(addr).expect("idle connect");
    // A slow-loris connection: parks half a length prefix forever.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris.write_all(&[0x10, 0x00]).expect("partial prefix");

    // A healthy connection keeps issuing requests through the whole
    // window — activity must exempt it from both reapers.
    let mut healthy = TcpClient::connect(addr).expect("healthy connect");
    let sid = open(&mut healthy, 8, 8);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match healthy
            .call(&Request::Batch {
                session: sid,
                events: vec![Event::Probe],
            })
            .expect("healthy call")
        {
            Response::Batch(r) => assert_eq!(r.len(), 1),
            other => panic!("healthy probe answered {other:?}"),
        }
        let s = server.frontend_stats();
        if s.reaped_idle >= 1 && s.reaped_partial >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reapers did not fire in time: {s:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }

    let stats = server.frontend_stats();
    assert!(stats.reaped_idle >= 1, "idle connection not reaped");
    assert!(
        stats.reaped_partial >= 1,
        "slow-loris connection not reaped"
    );
    assert_eq!(
        stats.connections_reaped(),
        stats.reaped_idle + stats.reaped_partial
    );

    // The healthy connection survived the purge.
    match healthy
        .call(&Request::Close { session: sid })
        .expect("healthy close")
    {
        Response::Closed => {}
        other => panic!("close answered {other:?}"),
    }
    server.stop();
}

#[test]
fn request_frames_larger_than_a_read_chunk_reassemble() {
    let server = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 1,
            ..CoreConfig::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    // A 300 KB frame outgrows the 64 KiB read buffer several times over;
    // the `Open` behind it checks that framing survived the growth.
    let wire = framed(&[
        &Request::Restore {
            snapshot: vec![0xEE; 300_000],
        },
        &Request::Open {
            resources: 4,
            processes: 4,
        },
    ]);
    let mut buf = Vec::new();
    for piece in [wire.len(), 7 * 1024] {
        for chunk in wire.chunks(piece) {
            stream.write_all(chunk).expect("write request bytes");
        }
        assert_eq!(
            read_response(&mut stream, &mut buf),
            Response::Error(ErrorCode::InvalidSnapshot),
            "{piece}-byte writes"
        );
        match read_response(&mut stream, &mut buf) {
            Response::Opened(_) => {}
            other => panic!("open after the large frame answered {other:?}"),
        }
    }
    assert_eq!(server.frontend_stats().desynced, 0);
    server.stop();
}

#[test]
fn half_closed_client_gets_every_reply_then_eof() {
    let server = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 1,
            ..CoreConfig::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A fresh runtime gives its first session id 0, so the batches can
    // ride in the same write as the `Open`.
    let open = Request::Open {
        resources: 4,
        processes: 4,
    };
    let probe = Request::Batch {
        session: SessionId(0),
        events: vec![Event::Probe],
    };
    let mut reqs = vec![&open];
    reqs.extend([&probe; 20]);
    stream.write_all(&framed(&reqs)).expect("pipelined write");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut buf = Vec::new();
    assert_eq!(
        read_response(&mut stream, &mut buf),
        Response::Opened(SessionId(0))
    );
    for k in 0..20 {
        match read_response(&mut stream, &mut buf) {
            Response::Batch(r) => assert_eq!(r.len(), 1, "probe {k}"),
            other => panic!("probe {k} answered {other:?}"),
        }
    }
    // Every reply drained: the runtime reaps the connection.
    assert_eq!(stream.read(&mut [0u8; 1]).expect("read EOF"), 0);
    let stats = server.frontend_stats();
    assert_eq!(stats.closed, 1);
    assert_eq!(stats.replies_out, 21);
    server.stop();
}

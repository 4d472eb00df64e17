//! Quickstart for the sharded deadlock service: open sessions through
//! the in-process client, then the same conversation over TCP.
//!
//! Run with `cargo run --example service_quickstart` (unix targets).

use deltaos::core::{ProcId, ResId};
use deltaos::service::{CoreConfig, CoreRuntime, Event, EventResult, Request, Response, TcpClient};

fn main() {
    // --- In-process: a runtime with 4 shards --------------------------
    let runtime = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 4,
            ..CoreConfig::default()
        },
    )
    .expect("bind");
    let client = runtime.client();

    let sid = client.open(8, 8).expect("open session");
    let results = client
        .batch(
            sid,
            vec![
                // The classic two-process hold-and-wait...
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
                // ...probed *before* admitting the closing edge.
                Event::WouldDeadlock {
                    p: ProcId(1),
                    q: ResId(0),
                },
            ],
        )
        .expect("apply batch");
    match results[3] {
        EventResult::Outcome(o) => {
            println!("would P1->R0 deadlock? {} (steps {})", o.deadlock, o.steps);
            assert!(o.deadlock);
        }
        ref other => panic!("unexpected {other:?}"),
    }

    // --- The same runtime over TCP ------------------------------------
    let mut tcp = TcpClient::connect(runtime.local_addr()).expect("connect");

    let Response::Opened(remote_sid) = tcp
        .call(&Request::Open {
            resources: 4,
            processes: 4,
        })
        .expect("open over tcp")
    else {
        panic!("expected Opened");
    };
    let resp = tcp
        .call(&Request::Batch {
            session: remote_sid,
            events: vec![
                Event::Grant {
                    q: ResId(0),
                    p: ProcId(0),
                },
                Event::Probe,
            ],
        })
        .expect("batch over tcp");
    match resp {
        Response::Batch(results) => match results[1] {
            EventResult::Outcome(o) => {
                println!("remote session {remote_sid}: deadlock = {}", o.deadlock);
                assert!(!o.deadlock);
            }
            ref other => panic!("unexpected {other:?}"),
        },
        other => panic!("unexpected {other:?}"),
    }

    // Per-shard counters over the wire.
    if let Response::Stats { shards, .. } = tcp.call(&Request::Stats).expect("stats over tcp") {
        let events: u64 = shards.iter().map(|s| s.events).sum();
        println!("{} shards ingested {events} events total", shards.len());
    }

    runtime.stop();
    println!("service drained cleanly");
}

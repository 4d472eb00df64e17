//! Session migration under load: a broker session with queued waiters
//! moves between nodes while other sessions hammer both nodes, and the
//! waiter queue survives the move.
//!
//! The shard-level contract for the connection-parked (`wait: true`)
//! acquire is fail-fast, not transparent hand-off: its reply slot lives
//! on the source node's connection and cannot migrate, so closing the
//! source copy fails it with `UnknownSession`. The *logical* waiter
//! queue rides the snapshot, so post-migration releases on the target
//! still arbitrate over every waiter that was queued at the cut.

#![cfg(unix)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deltaos_cluster::{ClusterClient, ClusterConfig};
use deltaos_core::avoid::ReleaseOutcome;
use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    AvoidanceMode, CoreConfig, CoreRuntime, ErrorCode, Event, Request, Response, TcpClient,
};

const SHARDS: usize = 2;

#[test]
fn migration_under_load_preserves_broker_waiters() {
    let nodes: Vec<CoreRuntime> = (0..2)
        .map(|_| {
            let config = CoreConfig {
                shards: SHARDS,
                ..CoreConfig::default()
            };
            CoreRuntime::bind("127.0.0.1:0", config).expect("bind node")
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
    let mut cc = ClusterClient::new(ClusterConfig::new(addrs.clone(), SHARDS as u16));

    // The broker session under test: p0 owns r0, p1 queued behind it.
    let sid = cc
        .open_avoid(8, 8, AvoidanceMode::FastPath)
        .expect("open avoid");
    assert!(matches!(
        cc.acquire(sid, ProcId(0), ResId(0), false)
            .expect("p0 acquire"),
        Response::Granted { .. }
    ));
    assert!(matches!(
        cc.acquire(sid, ProcId(1), ResId(0), false)
            .expect("p1 acquire"),
        Response::Deferred { .. }
    ));

    // A connection-parked waiter on the source node: blocks until the
    // migration closes the source copy, then must fail fast.
    let src = cc.placement(sid).unwrap();
    let parked = std::thread::spawn({
        let addr = addrs[src.node];
        let remote = src.remote;
        move || {
            let mut conn = TcpClient::connect(addr).expect("connect for parked acquire");
            conn.call(&Request::Acquire {
                session: remote,
                p: ProcId(2),
                q: ResId(0),
                wait: true,
            })
        }
    });

    // Load on both nodes while the session moves: a second front-end
    // hammers its own sessions throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let load = std::thread::spawn({
        let stop = Arc::clone(&stop);
        let addrs = addrs.clone();
        move || {
            let mut lc = ClusterClient::new(ClusterConfig::new(addrs, SHARDS as u16));
            let sids: Vec<_> = (0..16).map(|_| lc.open(8, 8).expect("load open")).collect();
            let mut batches = 0u64;
            while !stop.load(Ordering::Acquire) {
                for &s in &sids {
                    lc.batch(
                        s,
                        vec![
                            Event::Grant {
                                q: ResId(0),
                                p: ProcId(0),
                            },
                            Event::Release {
                                q: ResId(0),
                                p: ProcId(0),
                            },
                        ],
                    )
                    .expect("load batch");
                    batches += 1;
                }
            }
            batches
        }
    });

    // Let the parked acquire actually park and the load ramp up.
    std::thread::sleep(Duration::from_millis(100));

    let dst = 1 - src.node;
    cc.migrate(sid, dst).expect("migrate under load");
    assert_eq!(cc.placement(sid).unwrap().node, dst);

    // Fail-fast contract for the parked slot.
    match parked.join().expect("parked thread") {
        Ok(Response::Error(ErrorCode::UnknownSession)) => {}
        other => panic!("parked waiter should fail with UnknownSession, got {other:?}"),
    }

    stop.store(true, Ordering::Release);
    let batches = load.join().expect("load thread");
    assert!(batches > 0, "load thread never ran");

    // Both waiters queued before the cut survive it: releasing r0 on
    // the target grants p1, then p2 — the queue migrated intact.
    match cc
        .broker_release(sid, ProcId(0), ResId(0))
        .expect("release p0")
    {
        Response::Resolved {
            outcome: ReleaseOutcome::GrantedTo { process, .. },
            ..
        } => assert_eq!(process, ProcId(1)),
        other => panic!("expected hand-off to p1, got {other:?}"),
    }
    match cc
        .broker_release(sid, ProcId(1), ResId(0))
        .expect("release p1")
    {
        Response::Resolved {
            outcome: ReleaseOutcome::GrantedTo { process, .. },
            ..
        } => assert_eq!(process, ProcId(2)),
        other => panic!("expected hand-off to p2, got {other:?}"),
    }

    cc.close(sid).expect("close");
    for node in nodes {
        node.stop();
    }
}

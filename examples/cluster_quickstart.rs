//! Quickstart for the cluster layer: hash sessions across three service
//! processes, migrate one live, then fail a durable primary over to its
//! WAL-streaming follower.
//!
//! Run with `cargo run --example cluster_quickstart` (unix targets).

use std::time::Duration;

use deltaos::cluster::{ClusterClient, ClusterConfig};
use deltaos::core::{ProcId, ResId};
use deltaos::service::{
    CoreConfig, CoreRuntime, DurabilityConfig, Event, EventResult, ReplicaTailer, TailerConfig,
};

const SHARDS: u16 = 2;

fn mem_node() -> CoreRuntime {
    let config = CoreConfig {
        shards: SHARDS as usize,
        ..CoreConfig::default()
    };
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind node")
}

fn durable_node(dir: &std::path::Path, replica: bool) -> CoreRuntime {
    let config = CoreConfig {
        shards: SHARDS as usize,
        replica,
        durability: Some(DurabilityConfig::new(dir)),
        ..CoreConfig::default()
    };
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind node")
}

fn main() {
    // --- Part 1: consistent-hash scale-out across three processes -----
    // (In-process here for a self-contained example; each node would
    // normally be its own OS process on its own host.)
    let nodes: Vec<CoreRuntime> = (0..3).map(|_| mem_node()).collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
    let mut cc = ClusterClient::new(ClusterConfig::new(addrs, SHARDS));

    // Sessions route by consistent hash; the front-end is a client-side
    // library, so every front-end over the same ring agrees.
    let sessions: Vec<_> = (0..12).map(|_| cc.open(8, 8).expect("open")).collect();
    for node in 0..3 {
        println!("node {node}: {} sessions", cc.sessions_on(node));
    }

    let sid = sessions[0];
    let probe = vec![
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
        Event::WouldDeadlock {
            p: ProcId(1),
            q: ResId(0),
        },
    ];
    let results = cc.batch(sid, probe).expect("batch");
    match results[3] {
        EventResult::Outcome(o) => {
            println!("would P1->R0 deadlock? {}", o.deadlock);
            assert!(o.deadlock);
        }
        ref other => panic!("unexpected {other:?}"),
    }

    // Live migration: Snapshot on the source, Restore on the target —
    // the session answers identically from its new home.
    let from = cc.placement(sid).unwrap().node;
    let to = (from + 1) % 3;
    cc.migrate(sid, to).expect("migrate");
    let results = cc
        .batch(
            sid,
            vec![Event::WouldDeadlock {
                p: ProcId(1),
                q: ResId(0),
            }],
        )
        .expect("batch after migrate");
    match results[0] {
        EventResult::Outcome(o) => assert!(o.deadlock),
        ref other => panic!("unexpected {other:?}"),
    }
    println!("session {} migrated node {from} -> node {to}", sid.0);

    for node in nodes {
        node.stop();
    }

    // --- Part 2: WAL-streaming replication and failover ---------------
    let tmp = std::env::temp_dir().join(format!("deltaos-cluster-qs-{}", std::process::id()));
    let (pdir, fdir) = (tmp.join("primary"), tmp.join("follower"));
    let _ = std::fs::remove_dir_all(&tmp);

    let primary = durable_node(&pdir, false);
    let follower = durable_node(&fdir, true);

    // The follower tails the primary's WAL over the wire Subscribe op
    // and mirrors every record byte-for-byte into its own log.
    let tailer = ReplicaTailer::start(
        follower.client(),
        TailerConfig::new(primary.local_addr(), SHARDS),
    );

    let mut cc = ClusterClient::new(ClusterConfig::new(vec![primary.local_addr()], SHARDS));
    let standby = cc.add_standby(follower.local_addr());

    let sid = cc.open(8, 8).expect("open durable");
    cc.batch(
        sid,
        vec![Event::Grant {
            q: ResId(0),
            p: ProcId(0),
        }],
    )
    .expect("write");

    // Wait for the follower to catch up, then kill the primary.
    loop {
        let caught_up = (0..SHARDS).all(|s| {
            let p = cc.replica_status(0, s).expect("primary status");
            let f = cc.replica_status(standby, s).expect("follower status");
            f.last_seq >= p.last_seq
        });
        if caught_up {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    primary.stop();
    let report = tailer.stop();
    println!(
        "follower applied {} WAL records before the kill",
        report.records
    );

    // Promote the follower (fencing the dead primary's epoch) and
    // re-point every session — same ids, the WAL is a byte mirror.
    let repointed = cc.fail_over(0, standby).expect("fail over");
    let results = cc
        .batch(
            sid,
            vec![Event::WouldDeadlock {
                p: ProcId(1),
                q: ResId(0),
            }],
        )
        .expect("batch on survivor");
    match results[0] {
        EventResult::Outcome(o) => assert!(!o.deadlock),
        ref other => panic!("unexpected {other:?}"),
    }
    let epoch = cc.replica_status(standby, 0).expect("status").epoch;
    println!("failed over {repointed} session(s); survivor epoch {epoch}");

    follower.stop();
    let _ = std::fs::remove_dir_all(&tmp);
    println!("cluster drained cleanly");
}

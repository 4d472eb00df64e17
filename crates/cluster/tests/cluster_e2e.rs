//! End-to-end cluster tests: real `CoreRuntime` nodes, a [`ClusterClient`]
//! front-end routing over them, live-session migration, membership
//! changes, and failover onto a WAL-streaming follower.

#![cfg(unix)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deltaos_cluster::{ClusterClient, ClusterConfig, ClusterError, ClusterSession};
use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    CoreConfig, CoreRuntime, DurabilityConfig, Event, EventResult, FsyncPolicy, ReplicaTailer,
    TailerConfig,
};

const SHARDS: usize = 2;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltaos-cluster-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One memory-only node.
fn mem_node() -> (CoreRuntime, SocketAddr) {
    let node = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: SHARDS,
            ..CoreConfig::default()
        },
    )
    .expect("bind node");
    let addr = node.local_addr();
    (node, addr)
}

/// One durable node rooted at `dir`, optionally a replica.
fn durable_node(dir: &Path, replica: bool) -> (CoreRuntime, SocketAddr) {
    let config = CoreConfig {
        shards: SHARDS,
        replica,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Pipelined {
                max_records: 1,
                deadline: Duration::from_micros(500),
            },
            checkpoint_every_records: 10_000,
            checkpoint_on_shutdown: false,
            repl_ack: false,
        }),
        ..CoreConfig::default()
    };
    let node = CoreRuntime::bind("127.0.0.1:0", config).expect("bind node");
    let addr = node.local_addr();
    (node, addr)
}

/// Two grants and a request so that `WouldDeadlock(p1 → r0)` closes a
/// cycle and `WouldDeadlock(p2 → r0)` does not.
fn seed_events() -> Vec<Event> {
    vec![
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
    ]
}

fn probe_deadlock(cc: &mut ClusterClient, sid: ClusterSession, p: u16) -> bool {
    let results = cc
        .batch(
            sid,
            vec![Event::WouldDeadlock {
                p: ProcId(p),
                q: ResId(0),
            }],
        )
        .expect("probe batch");
    match results[..] {
        [EventResult::Outcome(o)] => o.deadlock,
        ref other => panic!("expected one outcome, got {other:?}"),
    }
}

#[test]
fn routes_sessions_across_all_nodes() {
    let nodes: Vec<_> = (0..3).map(|_| mem_node()).collect();
    let addrs = nodes.iter().map(|n| n.1).collect();
    let mut cc = ClusterClient::new(ClusterConfig::new(addrs, SHARDS as u16));

    let mut sids = Vec::new();
    for _ in 0..48 {
        sids.push(cc.open(8, 8).expect("open"));
    }
    // Consistent hashing over 48 ids should land some on every node.
    for n in 0..3 {
        assert!(cc.sessions_on(n) > 0, "node {n} got no sessions");
    }
    // Placement follows the ring exactly.
    for &sid in &sids {
        assert_eq!(cc.placement(sid).map(|p| p.node), cc.ideal_node(sid));
    }
    // Every session answers through its node.
    for &sid in &sids {
        cc.batch(sid, seed_events())
            .expect("batch")
            .iter()
            .for_each(|r| assert_eq!(*r, EventResult::Ack));
        assert!(probe_deadlock(&mut cc, sid, 1));
        assert!(!probe_deadlock(&mut cc, sid, 2));
    }
    for sid in sids {
        cc.close(sid).expect("close");
    }

    for (node, _) in nodes {
        node.stop();
    }
}

#[test]
fn migration_preserves_live_state() {
    let (s0, a0) = mem_node();
    let (s1, a1) = mem_node();
    let mut cc = ClusterClient::new(ClusterConfig::new(vec![a0, a1], SHARDS as u16));

    let sid = cc.open(8, 8).expect("open");
    cc.batch(sid, seed_events()).expect("seed");
    let before = probe_deadlock(&mut cc, sid, 1);
    assert!(before);

    let src = cc.placement(sid).unwrap().node;
    let dst = 1 - src;
    cc.migrate(sid, dst).expect("migrate");
    assert_eq!(cc.placement(sid).unwrap().node, dst);

    // The moved session answers identically and keeps accepting edits.
    assert!(probe_deadlock(&mut cc, sid, 1));
    assert!(!probe_deadlock(&mut cc, sid, 2));
    let r = cc
        .batch(
            sid,
            vec![Event::Grant {
                q: ResId(2),
                p: ProcId(2),
            }],
        )
        .expect("post-migration batch");
    assert_eq!(r, vec![EventResult::Ack]);

    // The source copy is gone: its old remote id no longer routes
    // (migrating back would hit a fresh restore, not the stale copy).
    cc.close(sid).expect("close");
    assert!(matches!(
        cc.batch(sid, vec![Event::Probe]),
        Err(ClusterError::UnknownSession)
    ));

    s0.stop();
    s1.stop();
}

#[test]
fn rebalance_moves_only_remapped_sessions() {
    let (s0, a0) = mem_node();
    let (s1, a1) = mem_node();
    let (s2, a2) = mem_node();
    let mut cc = ClusterClient::new(ClusterConfig::new(vec![a0, a1], SHARDS as u16));

    let sids: Vec<_> = (0..40).map(|_| cc.open(8, 8).expect("open")).collect();
    for &sid in &sids {
        cc.batch(sid, seed_events()).expect("seed");
    }
    let before: Vec<_> = sids
        .iter()
        .map(|&s| cc.placement(s).unwrap().node)
        .collect();

    let n2 = cc.add_node(a2);
    assert_eq!(n2, 2);
    let moved = cc.rebalance().expect("rebalance");
    assert!(moved > 0, "adding a node moved nothing");
    assert!(cc.sessions_on(n2) > 0, "new node got no sessions");

    for (i, &sid) in sids.iter().enumerate() {
        let now = cc.placement(sid).unwrap().node;
        // Consistent hashing: survivors stay put, movers go to the new
        // node only.
        if now != before[i] {
            assert_eq!(now, n2, "session moved between old nodes");
        }
        assert_eq!(Some(now), cc.ideal_node(sid));
        assert!(probe_deadlock(&mut cc, sid, 1));
    }

    // Draining the new node sends its sessions back to ring homes.
    let drained = cc.remove_node(n2).expect("remove");
    assert!(drained > 0);
    assert_eq!(cc.rebalance().expect("noop"), 0);
    assert_eq!(cc.sessions_on(n2), 0);
    for &sid in &sids {
        assert!(probe_deadlock(&mut cc, sid, 1));
    }

    s0.stop();
    s1.stop();
    s2.stop();
}

#[test]
fn fail_over_promotes_wal_follower() {
    let pdir = tmp("failover-primary");
    let fdir = tmp("failover-follower");
    let (primary, paddr) = durable_node(&pdir, false);
    let (follower, faddr) = durable_node(&fdir, true);

    let mut cc = ClusterClient::new(ClusterConfig::new(vec![paddr], SHARDS as u16));
    let standby = cc.add_standby(faddr);

    // Writes land on the primary while the follower tails its WAL.
    let tailer = ReplicaTailer::start(follower.client(), TailerConfig::new(paddr, SHARDS as u16));
    let sids: Vec<_> = (0..12).map(|_| cc.open(8, 8).expect("open")).collect();
    for &sid in &sids {
        cc.batch(sid, seed_events()).expect("seed");
    }

    // Wait until the follower's WAL frontier matches the primary's on
    // every shard.
    let deadline = Instant::now() + Duration::from_secs(10);
    for shard in 0..SHARDS as u16 {
        loop {
            let p = cc.replica_status(0, shard).expect("primary status");
            let f = cc.replica_status(standby, shard).expect("follower status");
            if f.last_seq >= p.last_seq {
                assert!(!f.primary, "follower claims primary before promotion");
                break;
            }
            assert!(Instant::now() < deadline, "follower never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let report = tailer.stop();
    assert!(
        report.gapped_shards.is_empty(),
        "follower gapped: {report:?}"
    );
    assert!(report.records > 0, "tailer applied nothing");

    // The follower refuses writes until promoted.
    let probe_on_standby = cc.replica_status(standby, 0).expect("status");
    assert!(!probe_on_standby.primary);

    // Primary dies; the front-end fails over to the follower.
    primary.stop();
    let repointed = cc.fail_over(0, standby).expect("fail over");
    assert_eq!(repointed, sids.len());

    // Promotion took on every shard and bumped the epoch.
    for shard in 0..SHARDS as u16 {
        let st = cc.replica_status(standby, shard).expect("status");
        assert!(st.primary, "shard {shard} still a replica");
        assert!(st.epoch >= 1, "shard {shard} epoch not bumped");
        assert_eq!(st.promotions, 1);
    }

    // Every session survived with its state: same ids, same answers,
    // and the successor accepts new writes and new sessions.
    for &sid in &sids {
        assert!(probe_deadlock(&mut cc, sid, 1));
        assert!(!probe_deadlock(&mut cc, sid, 2));
        let r = cc
            .batch(
                sid,
                vec![Event::Grant {
                    q: ResId(3),
                    p: ProcId(3),
                }],
            )
            .expect("post-failover write");
        assert_eq!(r, vec![EventResult::Ack]);
    }
    let fresh = cc.open(4, 4).expect("open after failover");
    assert_eq!(cc.placement(fresh).unwrap().node, standby);
    cc.close(fresh).expect("close");

    follower.stop();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

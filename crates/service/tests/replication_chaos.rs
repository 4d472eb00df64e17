//! Replication chaos: kill the primary mid-stream, promote the
//! WAL-streaming follower, and prove the survivor is **bit-identical**
//! to an independent replay of the acknowledged prefix — then prove the
//! deposed primary's epoch is fenced.
//!
//! The ack contract under test: the primary runs with
//! `DurabilityConfig::repl_ack`, so a batch reply is withheld until the
//! follower reports the batch's WAL records durable on *its* disk. Any
//! reply the writer observed strictly before the kill therefore names
//! state the survivor must still hold, byte for byte, after promotion.
//!
//! The cut point is randomized per seed: the kill lands wherever the
//! writer happens to be, and replies that race the kill form an ordered
//! per-session *ambiguous suffix* — the follower may hold any prefix of
//! it (per shard the pull loop is independent), so the survivor must
//! match `acked + ambiguous[..k]` for some `k`, per session. Nothing
//! less (a lost ack) and nothing else (reordering, corruption) passes.

#![cfg(unix)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    CoreConfig, CoreRuntime, DurabilityConfig, Event, FsyncPolicy, ReplicaTailer, Request,
    Response, ServiceError, SessionId, TailerConfig, TcpClient,
};
use deltaos_store::WalOp;
use rand::{Rng, SeedableRng, StdRng};

const SHARDS: usize = 2;
const SESSIONS: u64 = 4;
const DIMS: u16 = 8;

fn start(config: CoreConfig) -> CoreRuntime {
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind runtime")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltaos-replchaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, repl_ack: bool) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Pipelined {
            max_records: 1,
            deadline: Duration::from_micros(500),
        },
        checkpoint_every_records: 100_000,
        checkpoint_on_shutdown: false,
        repl_ack,
    }
}

/// One writer batch: at least one edit event (pure-probe batches are
/// logged but reply before their record is durable, so they must not
/// enter the replay ledger).
fn random_batch(rng: &mut StdRng) -> Vec<Event> {
    let extra = rng.gen_range(0..3);
    let mut events = Vec::with_capacity(1 + extra);
    for i in 0..=extra {
        let p = ProcId(rng.gen_range(0..DIMS));
        let q = ResId(rng.gen_range(0..DIMS));
        let kind = if i == 0 {
            rng.gen_range(0..3)
        } else {
            rng.gen_range(0..4)
        };
        events.push(match kind {
            0 => Event::Grant { q, p },
            1 => Event::Release { q, p },
            2 => Event::Request { p, q },
            _ => Event::WouldDeadlock { p, q },
        });
    }
    events
}

/// Everything the writer learned before it died: per-session batch
/// ledgers split at the kill flag.
struct WriterLog {
    /// Replies observed strictly before the kill flag: follower-durable
    /// by the `repl_ack` contract.
    acked: Vec<(u64, Vec<Event>)>,
    /// Replies that raced the kill (or were never received): the
    /// follower holds some per-shard prefix of these.
    ambiguous: Vec<(u64, Vec<Event>)>,
}

fn run_writer(addr: SocketAddr, seed: u64, killed: Arc<AtomicBool>) -> WriterLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conn = TcpClient::connect(addr).expect("writer connect");
    let mut log = WriterLog {
        acked: Vec::new(),
        ambiguous: Vec::new(),
    };
    loop {
        if killed.load(Ordering::Acquire) {
            break;
        }
        let sid = rng.gen_range(0..SESSIONS);
        let events = random_batch(&mut rng);
        match conn.call(&Request::Batch {
            session: SessionId(sid),
            events: events.clone(),
        }) {
            Ok(Response::Batch(_)) => {
                // Reply in hand; if the flag was still clear *after*
                // receipt, the reply predates the kill (and so predates
                // any shutdown force-release of withheld replies) —
                // the follower had it durable.
                if killed.load(Ordering::Acquire) {
                    log.ambiguous.push((sid, events));
                } else {
                    log.acked.push((sid, events));
                }
            }
            Ok(other) => panic!("writer got unexpected reply {other:?}"),
            Err(_) => {
                // Connection died mid-call: the in-flight batch may or
                // may not have been logged.
                log.ambiguous.push((sid, events));
                break;
            }
        }
    }
    log
}

/// One session's ledger: acked batches, then the ambiguous suffix.
type SessionLedger = (Vec<Vec<Event>>, Vec<Vec<Event>>);

/// Splits the ledger per session, acked prefix first.
fn per_session(log: &WriterLog) -> Vec<SessionLedger> {
    let mut out: Vec<SessionLedger> = (0..SESSIONS).map(|_| (Vec::new(), Vec::new())).collect();
    for (sid, events) in &log.acked {
        out[*sid as usize].0.push(events.clone());
    }
    for (sid, events) in &log.ambiguous {
        out[*sid as usize].1.push(events.clone());
    }
    out
}

#[test]
fn kill_primary_promote_follower_acked_prefix_survives() {
    let mut total_acked = 0usize;
    for seed in 0..4u64 {
        let pdir = tmp(&format!("primary-{seed}"));
        let fdir = tmp(&format!("follower-{seed}"));

        let primary = start(CoreConfig {
            shards: SHARDS,
            durability: Some(durable_config(&pdir, true)),
            ..CoreConfig::default()
        });
        let paddr = primary.local_addr();

        let follower = start(CoreConfig {
            shards: SHARDS,
            replica: true,
            durability: Some(durable_config(&fdir, false)),
            ..CoreConfig::default()
        });
        let tailer =
            ReplicaTailer::start(follower.client(), TailerConfig::new(paddr, SHARDS as u16));

        // Phase 1 — sessions exist on both sides before chaos starts.
        // The opens ride the same repl_ack gate, so once they return the
        // follower has them durable.
        {
            let c = primary.client();
            for sid in 0..SESSIONS {
                let got = c.open(DIMS, DIMS).expect("open");
                assert_eq!(got, SessionId(sid), "opens must allocate densely");
            }
        }

        // Phase 2 — write until the kill lands at a random point.
        let killed = Arc::new(AtomicBool::new(false));
        let writer = std::thread::spawn({
            let killed = Arc::clone(&killed);
            move || run_writer(paddr, 0xC0FFEE ^ seed, killed)
        });
        let mut rng = StdRng::seed_from_u64(0xDEAD ^ seed);
        std::thread::sleep(Duration::from_millis(rng.gen_range(5..40)));
        killed.store(true, Ordering::Release);
        primary.stop();
        let log = writer.join().expect("writer thread");
        total_acked += log.acked.len();
        let report = tailer.stop();
        assert!(
            report.gapped_shards.is_empty(),
            "seed {seed}: follower gapped: {report:?}"
        );

        // Phase 3 — promote the follower under epoch 1.
        let fc = follower.client();
        for shard in 0..SHARDS as u16 {
            match fc.promote(shard, 1).expect("promote") {
                Response::ReplicaStatus(st) => {
                    assert!(st.primary);
                    assert_eq!(st.epoch, 1);
                }
                other => panic!("promote answered {other:?}"),
            }
        }

        // Phase 4 — the survivor must equal `acked ++ ambiguous[..k]`
        // for some k, independently per session, byte for byte. The
        // reference replays the writer's ledger through a fresh
        // memory-only service with identical session ids. Snapshots are
        // taken before any probe is served on the survivor (replicas
        // serve probes without logging, letting their engine counters
        // run ahead — comparing first keeps the ledger exact).
        let ledger = per_session(&log);
        let reference = start(CoreConfig {
            shards: SHARDS,
            ..CoreConfig::default()
        });
        let rc = reference.client();
        for sid in 0..SESSIONS {
            assert_eq!(rc.open(DIMS, DIMS).expect("ref open"), SessionId(sid));
        }
        for (sid, (acked, ambiguous)) in ledger.iter().enumerate() {
            let survivor = fc
                .snapshot(SessionId(sid as u64))
                .expect("survivor snapshot");
            for batch in acked {
                rc.batch(SessionId(sid as u64), batch.clone())
                    .expect("ref replay");
            }
            let mut candidates = vec![rc.snapshot(SessionId(sid as u64)).expect("ref snapshot")];
            for batch in ambiguous {
                rc.batch(SessionId(sid as u64), batch.clone())
                    .expect("ref replay");
                candidates.push(rc.snapshot(SessionId(sid as u64)).expect("ref snapshot"));
            }
            let matched = candidates.iter().position(|c| *c == survivor);
            assert!(
                matched.is_some(),
                "seed {seed} session {sid}: survivor matches no acked+ambiguous[..k] \
                 prefix ({} acked, {} ambiguous batches)",
                acked.len(),
                ambiguous.len(),
            );
        }
        reference.stop();

        // Phase 5 — epoch fencing: a record stamped with the deposed
        // primary's epoch 0 lands exactly at the survivor's frontier and
        // must be refused, not applied.
        for shard in 0..SHARDS as u16 {
            let st = match fc.replica_status(shard).expect("status") {
                Response::ReplicaStatus(st) => st,
                other => panic!("status answered {other:?}"),
            };
            let mut stale = Vec::new();
            WalOp::Close { session: 0 }.encode_into(&mut stale);
            let err = fc
                .repl_apply(shard, vec![(st.last_seq + 1, 0, stale)])
                .expect_err("stale-epoch record must be fenced");
            assert_eq!(err, ServiceError::EpochFenced);
            // A promote that does not advance the epoch is fenced too.
            let err = fc.promote(shard, 1).expect_err("stale promote");
            assert_eq!(err, ServiceError::EpochFenced);
        }

        // Phase 6 — the promotion survives a restart: the epoch was
        // checkpointed, and the recovered service still holds the
        // sessions.
        follower.stop();
        let revived = start(CoreConfig {
            shards: SHARDS,
            durability: Some(durable_config(&fdir, false)),
            ..CoreConfig::default()
        });
        let rvc = revived.client();
        for shard in 0..SHARDS as u16 {
            match rvc.replica_status(shard).expect("revived status") {
                Response::ReplicaStatus(st) => {
                    assert!(st.epoch >= 1, "seed {seed}: epoch lost across restart");
                }
                other => panic!("status answered {other:?}"),
            }
        }
        for sid in 0..SESSIONS {
            rvc.batch(SessionId(sid), vec![Event::Probe])
                .expect("revived probe");
        }
        revived.stop();

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
    // Vacuity guard: a stalled ack gate (writer never acknowledged
    // anything) would make every per-session comparison trivially pass.
    assert!(
        total_acked > 0,
        "no batch was ever acknowledged across any seed — the repl_ack \
         release gate never opened"
    );
}

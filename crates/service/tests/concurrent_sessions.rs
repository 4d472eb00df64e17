//! Determinism under concurrency: many sessions driven from multiple
//! client threads must each behave exactly as if their event log were
//! applied to a private, single-threaded [`Session`].
//!
//! This is the service's core contract — sharding pins a session to one
//! core loop, so cross-session concurrency can never perturb per-session
//! results (verdicts, iteration counts, rejection reasons, ordering).

#![cfg(unix)]

use std::thread;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{CoreConfig, CoreRuntime, Event, EventResult, Session};
use rand::{Rng, SeedableRng, StdRng};

/// Deterministic per-session event log: a mix of edits, probes and
/// avoidance queries, sized to force journal replay and cache hits.
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

/// Replays `log` through a fresh single-threaded session.
fn replay(resources: u16, processes: u16, log: &[Event]) -> Vec<EventResult> {
    let mut session = Session::new(resources, processes);
    log.iter().map(|ev| session.apply(*ev)).collect()
}

#[test]
fn concurrent_sessions_match_single_threaded_replay() {
    const SESSIONS: usize = 12;
    const LOG_LEN: usize = 400;
    const BATCH: usize = 16;
    const DIMS: (u16, u16) = (24, 24);

    let service = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            loops: 4,
            shards: 4,
            ..CoreConfig::default()
        },
    )
    .expect("bind runtime");

    // One client thread per session, all hammering the 4 shards at once.
    let mut handles = Vec::new();
    for i in 0..SESSIONS {
        let client = service.client();
        handles.push(thread::spawn(move || {
            let log = event_log(0xA11CE ^ i as u64, DIMS.0, DIMS.1, LOG_LEN);
            let sid = match client.open(DIMS.0, DIMS.1) {
                Ok(sid) => sid,
                Err(e) => panic!("open failed: {e}"),
            };
            let mut results = Vec::with_capacity(LOG_LEN);
            for chunk in log.chunks(BATCH) {
                match client.batch(sid, chunk.to_vec()) {
                    Ok(mut r) => results.append(&mut r),
                    Err(e) => panic!("batch failed: {e}"),
                }
            }
            (log, results)
        }));
    }

    for (i, h) in handles.into_iter().enumerate() {
        let (log, service_results) = h.join().expect("client thread panicked");
        let expected = replay(DIMS.0, DIMS.1, &log);
        assert_eq!(
            service_results, expected,
            "session {i}: sharded execution diverged from single-threaded replay"
        );
    }

    let merged = service.client().stats_merged().unwrap();
    assert_eq!(
        merged.counter("service.events"),
        (SESSIONS * LOG_LEN) as u64
    );
    assert!(
        merged.counter("service.cache_hits") > 0,
        "repeated probes across batches should hit the engine caches"
    );
    service.stop();
}

#[test]
fn sessions_on_the_same_shard_do_not_interfere() {
    // Single shard: every session shares one loop, the tightest
    // interleaving possible.
    let service = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 1,
            ..CoreConfig::default()
        },
    )
    .expect("bind runtime");

    let mut handles = Vec::new();
    for i in 0..8usize {
        let client = service.client();
        handles.push(thread::spawn(move || {
            let log = event_log(0xF00D ^ i as u64, 8, 8, 120);
            let sid = client.open(8, 8).unwrap();
            let mut results = Vec::new();
            for chunk in log.chunks(5) {
                match client.batch(sid, chunk.to_vec()) {
                    Ok(mut r) => results.append(&mut r),
                    Err(e) => panic!("batch failed: {e}"),
                }
            }
            (log, results)
        }));
    }

    for (i, h) in handles.into_iter().enumerate() {
        let (log, service_results) = h.join().expect("client thread panicked");
        assert_eq!(
            service_results,
            replay(8, 8, &log),
            "session {i} diverged on the shared shard"
        );
    }
    service.stop();
}

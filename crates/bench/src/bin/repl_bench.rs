//! Replication and scale-out characterization of the `deltaos-cluster`
//! subsystem.
//!
//! Three questions, one JSON artifact (`BENCH_repl.json`):
//!
//! 1. **How far behind is the follower?** A WAL-streaming follower tails
//!    a primary under sustained multi-client write load; the primary's
//!    replication frontier (`last_seq − acked_seq`, summed over shards)
//!    is sampled on a fixed cadence and reported as lag p50/p99 in
//!    records.
//! 2. **How long is failover?** The primary is killed; the tailer's
//!    heartbeat timeout detects the death, auto-promotes every local
//!    shard, and the clock stops at the first *accepted write* on the
//!    survivor — detection plus promotion plus first grant, end to end.
//! 3. **Does the cluster scale out?** Aggregate accepted-event
//!    throughput through `ClusterClient` front-ends over N = 1, 2, 4
//!    single-shard nodes. The acceptance gate requires the 2-node
//!    cluster to reach ≥ 1.5× the single-node rate — armed only on
//!    hosts with ≥ 4 CPUs (below that, nodes and clients fight for
//!    cores and the ratio is recorded but not enforced).
//!
//! Full mode writes `BENCH_repl.json` at the repository root; `--smoke`
//! runs a miniature (debug builds allowed, no JSON, no gate).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deltaos_cluster::{ClusterClient, ClusterConfig};
use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    CoreConfig, CoreRuntime, DurabilityConfig, Event, ReplicaTailer, Response, SessionId,
    TailerConfig,
};
use rand::{Rng, SeedableRng, StdRng};

const SHARDS: usize = 2;

fn start(config: CoreConfig) -> CoreRuntime {
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind runtime")
}
const DIMS: u16 = 24;
const HEARTBEAT_MS: u64 = 150;

struct Drive {
    /// Writer threads during the lag phase.
    writers: usize,
    /// Sessions per writer.
    sessions: usize,
    /// Edits per batch.
    edits: usize,
    /// Lag-phase sampling window.
    lag_window: Duration,
    /// Failover trials.
    trials: usize,
    /// Scale-out cluster sizes.
    cluster_sizes: &'static [usize],
    /// Client threads per scale-out run.
    cluster_clients: usize,
    /// Wall time per scale-out run.
    cluster_window: Duration,
}

const FULL: Drive = Drive {
    writers: 2,
    sessions: 8,
    edits: 16,
    lag_window: Duration::from_millis(2000),
    trials: 3,
    cluster_sizes: &[1, 2, 4],
    cluster_clients: 4,
    cluster_window: Duration::from_millis(1500),
};

const SMOKE: Drive = Drive {
    writers: 1,
    sessions: 2,
    edits: 6,
    lag_window: Duration::from_millis(250),
    trials: 1,
    cluster_sizes: &[1, 2],
    cluster_clients: 2,
    cluster_window: Duration::from_millis(200),
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltaos-replbench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every_records: 1_000_000,
        checkpoint_on_shutdown: false,
        ..DurabilityConfig::new(dir)
    }
}

fn random_edit(rng: &mut StdRng) -> Event {
    let p = ProcId(rng.gen_range(0..DIMS));
    let q = ResId(rng.gen_range(0..DIMS));
    match rng.gen_range(0..6u32) {
        0..=2 => Event::Request { p, q },
        3 | 4 => Event::Grant { q, p },
        _ => Event::Release { q, p },
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q / 100.0).round() as usize;
    sorted[idx]
}

fn shard_status(c: &deltaos_service::Client, shard: u16) -> deltaos_service::ReplStatus {
    match c.replica_status(shard).expect("replica status") {
        Response::ReplicaStatus(st) => st,
        other => panic!("status answered {other:?}"),
    }
}

struct LagResult {
    samples: usize,
    p50_records: u64,
    p99_records: u64,
    max_records: u64,
    records_applied: u64,
}

/// Phase 1: sample the primary's replication lag under write load.
fn run_lag(drive: &Drive) -> LagResult {
    let pdir = tmp("lag-primary");
    let fdir = tmp("lag-follower");
    let primary = start(CoreConfig {
        shards: SHARDS,
        durability: Some(durable(&pdir)),
        ..CoreConfig::default()
    });
    let follower = start(CoreConfig {
        shards: SHARDS,
        replica: true,
        durability: Some(durable(&fdir)),
        ..CoreConfig::default()
    });
    let tailer = ReplicaTailer::start(
        follower.client(),
        TailerConfig::new(primary.local_addr(), SHARDS as u16),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..drive.writers)
        .map(|w| {
            let client = primary.client();
            let stop = Arc::clone(&stop);
            let (sessions, edits) = (drive.sessions, drive.edits);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x1A6 ^ w as u64);
                let sids: Vec<_> = (0..sessions)
                    .map(|_| client.open(DIMS, DIMS).expect("open"))
                    .collect();
                while !stop.load(Ordering::Acquire) {
                    for &sid in &sids {
                        let batch: Vec<Event> = (0..edits).map(|_| random_edit(&mut rng)).collect();
                        if let Err(e) = client.batch(sid, batch) {
                            panic!("lag writer batch failed: {e}");
                        }
                    }
                }
            })
        })
        .collect();

    // Sample `last_seq − acked_seq` on a fixed cadence.
    let pc = primary.client();
    let mut samples = Vec::new();
    let deadline = Instant::now() + drive.lag_window;
    while Instant::now() < deadline {
        let lag: u64 = (0..SHARDS as u16)
            .map(|s| {
                let st = shard_status(&pc, s);
                st.last_seq.saturating_sub(st.acked_seq)
            })
            .sum();
        samples.push(lag);
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Release);
    for w in writers {
        w.join().expect("writer");
    }
    let report = tailer.stop();
    primary.stop();
    follower.stop();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);

    samples.sort_unstable();
    LagResult {
        samples: samples.len(),
        p50_records: percentile(&samples, 50.0),
        p99_records: percentile(&samples, 99.0),
        max_records: samples.last().copied().unwrap_or(0),
        records_applied: report.records,
    }
}

/// Phase 2: kill the primary, let the heartbeat auto-promotion fire,
/// and time kill → first accepted write on the survivor.
fn run_failover_trial(trial: usize) -> f64 {
    let pdir = tmp(&format!("fo-primary-{trial}"));
    let fdir = tmp(&format!("fo-follower-{trial}"));
    let primary = start(CoreConfig {
        shards: SHARDS,
        durability: Some(durable(&pdir)),
        ..CoreConfig::default()
    });
    let follower = start(CoreConfig {
        shards: SHARDS,
        replica: true,
        durability: Some(durable(&fdir)),
        ..CoreConfig::default()
    });
    let tailer = ReplicaTailer::start(
        follower.client(),
        TailerConfig {
            heartbeat_timeout: Duration::from_millis(HEARTBEAT_MS),
            auto_promote: true,
            ..TailerConfig::new(primary.local_addr(), SHARDS as u16)
        },
    );

    // Seed state and wait until the follower has acknowledged all of it.
    let pc = primary.client();
    let mut rng = StdRng::seed_from_u64(0xF0 ^ trial as u64);
    let sids: Vec<_> = (0..4).map(|_| pc.open(DIMS, DIMS).expect("open")).collect();
    for &sid in &sids {
        let batch: Vec<Event> = (0..32).map(|_| random_edit(&mut rng)).collect();
        pc.batch(sid, batch).expect("seed batch");
    }
    let catchup = Instant::now() + Duration::from_secs(10);
    for s in 0..SHARDS as u16 {
        loop {
            let st = shard_status(&pc, s);
            if st.acked_seq >= st.last_seq {
                break;
            }
            assert!(Instant::now() < catchup, "follower never caught up");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // Kill. Shutdown drains in the background so the clock measures the
    // survivor, not the corpse.
    let t0 = Instant::now();
    let reaper = std::thread::spawn(move || primary.stop());
    let fc = follower.client();
    let grant = vec![Event::Grant {
        q: ResId(DIMS - 1),
        p: ProcId(DIMS - 1),
    }];
    let elapsed_ms = loop {
        match fc.batch(SessionId(0), grant.clone()) {
            Ok(_) => break t0.elapsed().as_secs_f64() * 1e3,
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "promotion never fired within 10s"
        );
    };
    reaper.join().expect("primary shutdown");
    let report = tailer.stop();
    assert!(report.promoted, "tailer did not auto-promote");
    follower.stop();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
    elapsed_ms
}

/// Phase 3: aggregate accepted-event throughput through cluster
/// front-ends over `nodes` single-shard wire nodes.
fn run_cluster(nodes: usize, drive: &Drive) -> (u64, f64) {
    let running: Vec<CoreRuntime> = (0..nodes)
        .map(|_| {
            start(CoreConfig {
                shards: 1,
                ..CoreConfig::default()
            })
        })
        .collect();
    let addrs: Vec<_> = running.iter().map(|n| n.local_addr()).collect();

    let start = Instant::now();
    let deadline = start + drive.cluster_window;
    let events: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drive.cluster_clients)
            .map(|t| {
                let addrs = addrs.clone();
                let (sessions, edits) = (drive.sessions, drive.edits);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC1 ^ t as u64);
                    let mut cc = ClusterClient::new(ClusterConfig::new(addrs, 1));
                    let sids: Vec<_> = (0..sessions)
                        .map(|_| cc.open(DIMS, DIMS).expect("open"))
                        .collect();
                    let mut accepted = 0u64;
                    while Instant::now() < deadline {
                        for &sid in &sids {
                            let mut batch: Vec<Event> =
                                (0..edits).map(|_| random_edit(&mut rng)).collect();
                            // Probe pressure keeps the bottleneck in the
                            // engines, where scale-out capacity lives.
                            batch.push(Event::WouldDeadlock {
                                p: ProcId(rng.gen_range(0..DIMS)),
                                q: ResId(rng.gen_range(0..DIMS)),
                            });
                            let n = batch.len() as u64;
                            cc.batch(sid, batch).expect("cluster batch");
                            accepted += n;
                        }
                    }
                    accepted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();

    for node in running {
        node.stop();
    }
    (events, events as f64 / elapsed)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let drive = if smoke { &SMOKE } else { &FULL };

    // --- 1. Replication lag. -----------------------------------------
    let lag = run_lag(drive);
    println!(
        "lag: {} samples, p50 {} / p99 {} / max {} records behind, {} records applied",
        lag.samples, lag.p50_records, lag.p99_records, lag.max_records, lag.records_applied
    );
    assert!(lag.records_applied > 0, "follower applied nothing");

    // --- 2. Failover. -------------------------------------------------
    let mut trials: Vec<f64> = (0..drive.trials).map(run_failover_trial).collect();
    trials.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let failover_median_ms = trials[trials.len() / 2];
    println!(
        "failover (kill -> first accepted write): median {failover_median_ms:.1}ms over {:?}",
        trials
            .iter()
            .map(|t| format!("{t:.1}ms"))
            .collect::<Vec<_>>()
    );

    // --- 3. Cluster scale-out. ---------------------------------------
    let mut scaleout = Vec::new();
    for &n in drive.cluster_sizes {
        let (events, eps) = run_cluster(n, drive);
        println!("cluster n={n}: {events} events, {eps:.0} events/sec");
        scaleout.push((n, events, eps));
    }
    let single = scaleout.iter().find(|r| r.0 == 1).expect("n=1 row").2;
    let dual = scaleout.iter().find(|r| r.0 == 2).expect("n=2 row").2;
    let ratio = dual / single;
    let host_cpus = deltaos_core::par::host_cpus();
    let armed = host_cpus >= 4;
    let pass = !armed || ratio >= 1.5;
    println!(
        "scale-out ratio 2-node/1-node {ratio:.3} (gate: >= 1.5, {} on {host_cpus} CPUs)",
        if armed { "armed" } else { "recorded only" }
    );

    if smoke {
        assert!(single > 0.0 && dual > 0.0);
        println!("smoke ok");
        return;
    }

    // --- JSON emission. ----------------------------------------------
    let scaleout_rows: Vec<String> = scaleout
        .iter()
        .map(|(n, events, eps)| {
            format!("    {{\"nodes\": {n}, \"events\": {events}, \"events_per_sec\": {eps:.0}}}")
        })
        .collect();
    let trial_list: Vec<String> = trials.iter().map(|t| format!("{t:.2}")).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"repl_bench\",\n",
            "  \"config\": {{\"shards\": {}, \"dims\": {}, \"writers\": {}, ",
            "\"sessions_per_writer\": {}, \"edits_per_batch\": {}, ",
            "\"cluster_clients\": {}, \"heartbeat_timeout_ms\": {}}},\n",
            "  \"replication_lag\": {{\"samples\": {}, \"p50_records\": {}, ",
            "\"p99_records\": {}, \"max_records\": {}, \"records_applied\": {}}},\n",
            "  \"failover\": {{\"trials_ms\": [{}], \"median_ms\": {:.2}}},\n",
            "  \"scaleout\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\"ratio_2node_vs_1node\": {:.3}, \"required_ratio\": 1.5, ",
            "\"gate_requires_cpus\": 4, \"host_cpus\": {}, \"armed\": {}, \"pass\": {}}}\n",
            "}}\n"
        ),
        SHARDS,
        DIMS,
        drive.writers,
        drive.sessions,
        drive.edits,
        drive.cluster_clients,
        HEARTBEAT_MS,
        lag.samples,
        lag.p50_records,
        lag.p99_records,
        lag.max_records,
        lag.records_applied,
        trial_list.join(", "),
        failover_median_ms,
        scaleout_rows.join(",\n"),
        ratio,
        host_cpus,
        armed,
        pass
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repl.json");
    std::fs::write(path, &json).expect("write BENCH_repl.json");
    println!("wrote {path}");
    assert!(
        pass,
        "acceptance failed: 2-node/1-node ratio {ratio:.3} below 1.5 on a {host_cpus}-CPU host"
    );
}

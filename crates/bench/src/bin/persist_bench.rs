//! Durability cost and recovery speed of the `deltaos-store` subsystem.
//!
//! Three questions, answered against one multi-client drive that keeps
//! a window of batches in flight per client thread:
//!
//! 1. **What does the WAL cost?** Aggregate throughput with durability
//!    off (`wal_off`), under [`FsyncPolicy::Os`] (`wal_os`) and under
//!    the service's default, [`DurabilityConfig::new`]'s pipelined group
//!    commit (`pipelined`), driven through the runtime's in-process
//!    [`Client`](deltaos_service::Client). One drive lasts tens of
//!    milliseconds, so each row is the median of [`THROUGHPUT_RUNS`]
//!    drives on fresh services, printed with their spread, and the
//!    rounds interleave the modes. Two acceptance gates: the
//!    pipeline must group — at most one fsync per four commits, on every
//!    host — and keep ≥ 50% of the WAL-off throughput, armed only on
//!    hosts with ≥ 4 CPUs (below that the ratio is recorded but not
//!    enforced, since client threads and core loops fight for cores).
//! 2. **How fast is recovery?** Cold-start time and replayed-record
//!    counts for the same workload under the default policy at
//!    different checkpoint intervals — from "pure WAL replay" down to
//!    tight compaction.
//! 3. **Is recovery exact?** Every restart is checked bit-identical:
//!    the recovered service's deterministic counters must equal the
//!    final counters the live run reported at shutdown.
//!
//! Full mode writes `BENCH_persist.json` at the repository root;
//! `--smoke` runs a miniature (debug builds allowed, no JSON, no gate).

use std::path::{Path, PathBuf};
use std::time::Instant;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{CoreConfig, CoreRuntime, DurabilityConfig, Event, FsyncPolicy};
use deltaos_sim::Stats;
use rand::{Rng, SeedableRng, StdRng};

struct Drive {
    shards: usize,
    sessions: usize,
    clients: usize,
    dims: u16,
    rounds: usize,
    edits_per_round: usize,
}

const FULL: Drive = Drive {
    shards: 4,
    sessions: 32,
    clients: 4,
    dims: 32,
    rounds: 60,
    edits_per_round: 15,
};

const SMOKE: Drive = Drive {
    shards: 2,
    sessions: 4,
    clients: 2,
    dims: 8,
    rounds: 4,
    edits_per_round: 5,
};

/// The counters a deterministic replay must reproduce exactly
/// (timing-dependent ones — the store I/O tallies — excluded).
const DETERMINISTIC_KEYS: &[&str] = &[
    "service.events",
    "service.batches",
    "service.probes",
    "service.rejected_events",
    "service.cache_hits",
    "service.reductions",
    "service.sessions_opened",
    "service.sessions_closed",
    "service.sessions_open",
];

fn deterministic(stats: &Stats) -> Vec<u64> {
    DETERMINISTIC_KEYS
        .iter()
        .map(|k| stats.counter(k))
        .collect()
}

fn random_event(rng: &mut StdRng, dims: u16) -> Event {
    let p = ProcId(rng.gen_range(0..dims));
    let q = ResId(rng.gen_range(0..dims));
    match rng.gen_range(0..8u32) {
        0..=2 => Event::Request { p, q },
        3 | 4 => Event::Grant { q, p },
        5 => Event::Release { q, p },
        6 => Event::Probe,
        _ => Event::WouldDeadlock { p, q },
    }
}

/// Drives the workload through `clients` threads with **async
/// pipelining**: each round fans a batch out to every session before
/// collecting any reply, so the loops' inboxes hold concurrent durable
/// work — the group-commit scheduler needs in-flight depth to batch
/// fsyncs (a strictly blocking client would degenerate to one flush per
/// op). Returns wall seconds.
fn drive_clients(service: &CoreRuntime, drive: &Drive) -> f64 {
    assert_eq!(drive.sessions % drive.clients, 0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..drive.clients {
            let client = service.client();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x9E85 ^ t as u64);
                let per_thread = drive.sessions / drive.clients;
                let sids: Vec<_> = (0..per_thread)
                    .map(|_| client.open(drive.dims, drive.dims).expect("open session"))
                    .collect();
                // Sliding window several rounds deep: the inboxes must
                // stay non-empty for the scheduler to see batchable
                // depth instead of idle-flushing after every record.
                let window = 4 * sids.len();
                let mut pending = std::collections::VecDeque::with_capacity(window);
                for _ in 0..drive.rounds {
                    for &sid in &sids {
                        let batch: Vec<Event> = (0..drive.edits_per_round)
                            .map(|_| random_event(&mut rng, drive.dims))
                            .collect();
                        match client.batch_async(sid, batch) {
                            Ok(reply) => pending.push_back(reply),
                            Err(e) => panic!("batch submit failed: {e}"),
                        }
                        while pending.len() >= window {
                            let reply = pending.pop_front().expect("non-empty window");
                            if let Err(e) = reply.wait() {
                                panic!("batch failed: {e}");
                            }
                        }
                    }
                }
                for reply in pending {
                    if let Err(e) = reply.wait() {
                        panic!("batch failed: {e}");
                    }
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

struct RunOut {
    events: u64,
    elapsed_secs: f64,
    wal_records: u64,
    commits: u64,
    fsyncs: u64,
    /// Group-commit scheduler tallies (zero outside the pipelined run):
    /// flush count / largest flush, peak withheld-reply depth, and the
    /// worst per-shard commit-latency percentiles in microseconds.
    pipeline_batches: u64,
    pipeline_batch_max: u64,
    pipeline_withheld_peak: u64,
    pipeline_commit_p50_us: u64,
    pipeline_commit_p99_us: u64,
    /// Per-shard deterministic counter vectors at shutdown.
    final_counters: Vec<Vec<u64>>,
}

impl RunOut {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }
}

fn start(config: CoreConfig) -> CoreRuntime {
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind runtime")
}

fn run(config: CoreConfig, drive: &Drive) -> RunOut {
    let service = start(config);
    let elapsed_secs = drive_clients(&service, drive);
    let per_shard = service.stop();
    let mut events = 0;
    let mut wal_records = 0;
    let mut commits = 0;
    let mut fsyncs = 0;
    let mut pipeline_batches = 0;
    let mut pipeline_batch_max = 0u64;
    let mut pipeline_withheld_peak = 0u64;
    let mut pipeline_commit_p50_us = 0u64;
    let mut pipeline_commit_p99_us = 0u64;
    for s in &per_shard {
        events += s.counter("service.events");
        wal_records += s.counter("store.wal_records");
        commits += s.counter("store.commits");
        fsyncs += s.counter("store.fsyncs");
        pipeline_batches += s.counter("store.pipeline_batches");
        pipeline_batch_max = pipeline_batch_max.max(s.counter("store.pipeline_batch_max"));
        pipeline_withheld_peak =
            pipeline_withheld_peak.max(s.counter("store.pipeline_withheld_peak"));
        pipeline_commit_p50_us =
            pipeline_commit_p50_us.max(s.counter("store.pipeline_commit_p50_us"));
        pipeline_commit_p99_us =
            pipeline_commit_p99_us.max(s.counter("store.pipeline_commit_p99_us"));
    }
    RunOut {
        events,
        elapsed_secs,
        wal_records,
        commits,
        fsyncs,
        pipeline_batches,
        pipeline_batch_max,
        pipeline_withheld_peak,
        pipeline_commit_p50_us,
        pipeline_commit_p99_us,
        final_counters: per_shard.iter().map(deterministic).collect(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deltaos-persist-bench-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// [`DurabilityConfig::new`] under `fsync`, checkpointing every
/// `ckpt_every` records.
fn durable_config(drive: &Drive, dir: &Path, fsync: FsyncPolicy, ckpt_every: u64) -> CoreConfig {
    CoreConfig {
        loops: drive.shards,
        shards: drive.shards,
        durability: Some(DurabilityConfig {
            fsync,
            checkpoint_every_records: ckpt_every,
            // Keep the WAL at shutdown so the recovery measurement
            // actually replays it.
            checkpoint_on_shutdown: false,
            ..DurabilityConfig::new(dir)
        }),
        ..CoreConfig::default()
    }
}

/// Restarts a service over `dir`, times the cold start, and asserts the
/// recovered counters are bit-identical to the live run's final ones.
struct Recovered {
    recovery_secs: f64,
    replayed_records: u64,
    recovered_sessions: u64,
}

fn restart_and_verify(config: CoreConfig, live: &RunOut) -> Recovered {
    let t0 = Instant::now();
    let service = start(config);
    let recovery_secs = t0.elapsed().as_secs_f64();
    let replayed_records = service.recovery().iter().map(|r| r.replayed_records).sum();
    let recovered_sessions = service.recovery().iter().map(|r| r.live_sessions).sum();
    let per_shard = service.client().stats().expect("stats after recovery");
    for (shard, stats) in per_shard.iter().enumerate() {
        assert_eq!(
            deterministic(stats),
            live.final_counters[shard],
            "shard {shard}: recovery is not bit-identical to the live run"
        );
    }
    service.stop();
    Recovered {
        recovery_secs,
        replayed_records,
        recovered_sessions,
    }
}

/// Drives per throughput row; the row reports the median one.
const THROUGHPUT_RUNS: usize = 5;

/// One throughput row: the median of [`THROUGHPUT_RUNS`] drives by
/// events per second, with the slowest and fastest rates.
struct PolicyRow {
    mode: &'static str,
    out: RunOut,
    min_events_per_sec: f64,
    max_events_per_sec: f64,
}

impl PolicyRow {
    fn median(mode: &'static str, mut runs: Vec<RunOut>) -> Self {
        runs.sort_by(|a, b| a.events_per_sec().total_cmp(&b.events_per_sec()));
        PolicyRow {
            mode,
            min_events_per_sec: runs[0].events_per_sec(),
            max_events_per_sec: runs[runs.len() - 1].events_per_sec(),
            out: runs.swap_remove(runs.len() / 2),
        }
    }
}

/// Drive `round` of `mode` on a fresh service and, when `fsync` is set, a
/// fresh WAL directory. A durable drive is restarted and checked
/// bit-identical before its directory goes.
fn throughput_drive(mode: &str, round: usize, drive: &Drive, fsync: Option<FsyncPolicy>) -> RunOut {
    let Some(policy) = fsync else {
        let config = CoreConfig {
            loops: drive.shards,
            shards: drive.shards,
            ..CoreConfig::default()
        };
        return run(config, drive);
    };
    let dir = fresh_dir(&format!("{mode}-{round}"));
    let out = run(durable_config(drive, &dir, policy, u64::MAX), drive);
    let rec = restart_and_verify(durable_config(drive, &dir, policy, u64::MAX), &out);
    println!(
        "  {mode} drive {round}: {:.0} events/sec; recovery: {} records, {} sessions in {:.4}s (bit-identical)",
        out.events_per_sec(),
        rec.replayed_records,
        rec.recovered_sessions,
        rec.recovery_secs
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let drive = if smoke { &SMOKE } else { &FULL };

    if !smoke && cfg!(debug_assertions) {
        eprintln!("persist_bench: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    println!("=== persist_bench: WAL cost + snapshot/restore recovery ===");

    // The default the service ships: appends decoupled from fsync,
    // replies withheld until durable, flushes grouped by the per-core
    // scheduler.
    let default_fsync = DurabilityConfig::new("").fsync;

    // --- 1. Throughput: WAL off, then each fsync policy. -------------
    let modes = [
        ("wal_off", None),
        ("wal_os", Some(FsyncPolicy::Os)),
        ("pipelined", Some(default_fsync)),
    ];
    // Each round drives every mode once, so a shift in host speed moves
    // all rows alike instead of deciding their ratio.
    let mut drives: Vec<Vec<RunOut>> = modes.iter().map(|_| Vec::new()).collect();
    for round in 0..THROUGHPUT_RUNS {
        for ((mode, fsync), runs) in modes.iter().zip(&mut drives) {
            runs.push(throughput_drive(mode, round, drive, *fsync));
        }
    }
    let rows: Vec<PolicyRow> = modes
        .iter()
        .zip(drives)
        .map(|((mode, _), runs)| PolicyRow::median(mode, runs))
        .collect();
    for row in &rows {
        let mode = row.mode;
        let out = &row.out;
        println!(
            "{mode}: {} events in {:.3}s -> {:.0} events/sec, median of {THROUGHPUT_RUNS} drives \
             (spread {:.0}..{:.0}, {:.1}% of the median) ({} records, {} commits, {} fsyncs)",
            out.events,
            out.elapsed_secs,
            out.events_per_sec(),
            row.min_events_per_sec,
            row.max_events_per_sec,
            100.0 * (row.max_events_per_sec - row.min_events_per_sec) / out.events_per_sec(),
            out.wal_records,
            out.commits,
            out.fsyncs
        );
        if out.pipeline_batches > 0 {
            println!(
                "  pipeline: {} flushes (max {} records), withheld peak {}, \
                 commit latency p50 {}us p99 {}us",
                out.pipeline_batches,
                out.pipeline_batch_max,
                out.pipeline_withheld_peak,
                out.pipeline_commit_p50_us,
                out.pipeline_commit_p99_us
            );
        }
    }
    let baseline = &rows[0].out;

    // --- 2. Recovery time vs checkpoint interval. --------------------
    struct RecoveryRow {
        checkpoint_every: u64,
        wal_records_at_rest: u64,
        rec: Recovered,
    }
    let mut sweep: Vec<RecoveryRow> = Vec::new();
    let intervals = if smoke {
        vec![u64::MAX, 16]
    } else {
        vec![u64::MAX, 256, 64]
    };
    for every in intervals {
        let tag = if every == u64::MAX {
            "ckpt-none".to_string()
        } else {
            format!("ckpt-{every}")
        };
        let dir = fresh_dir(&tag);
        let out = run(durable_config(drive, &dir, default_fsync, every), drive);
        let rec = restart_and_verify(durable_config(drive, &dir, default_fsync, every), &out);
        println!(
            "{tag}: replayed {} of {} records, {} sessions, recovery {:.4}s (bit-identical)",
            rec.replayed_records, out.wal_records, rec.recovered_sessions, rec.recovery_secs
        );
        let _ = std::fs::remove_dir_all(&dir);
        sweep.push(RecoveryRow {
            checkpoint_every: every,
            wal_records_at_rest: out.wal_records,
            rec,
        });
    }

    // --- 3. Acceptance. ----------------------------------------------
    let pipe = rows
        .iter()
        .find(|r| r.mode == "pipelined")
        .expect("pipelined row");
    let pipe_ratio = pipe.out.events_per_sec() / baseline.events_per_sec();
    let host_cpus = deltaos_core::par::host_cpus();
    let armed = host_cpus >= 4;
    // The withheld-reply scheduler must actually group: far fewer
    // fsyncs than logical commits, on every host.
    let grouped = pipe.out.fsyncs * 4 <= pipe.out.commits.max(1);
    let pass = grouped && (!armed || pipe_ratio >= 0.5);
    println!(
        "pipelined: {} fsyncs / {} commits (gate: fsyncs x 4 <= commits everywhere); \
         throughput ratio {pipe_ratio:.3} vs off (gate: >= 0.5, {} on {host_cpus} CPUs)",
        pipe.out.fsyncs,
        pipe.out.commits,
        if armed { "armed" } else { "recorded only" }
    );

    if smoke {
        // The miniature drive is too shallow for meaningful grouping
        // (and the ratio gate never arms in smoke); presence checks only.
        assert!(baseline.events > 0 && pipe.out.wal_records > 0);
        println!("smoke ok");
        return;
    }

    // --- JSON emission. ----------------------------------------------
    let throughput_rows: Vec<String> = rows
        .iter()
        .map(|r| {
        let pipeline = if r.mode == "pipelined" {
            format!(
                ", \"flushes\": {}, \"flush_max_records\": {}, \"withheld_peak\": {}, \"commit_p50_us\": {}, \"commit_p99_us\": {}",
                r.out.pipeline_batches,
                r.out.pipeline_batch_max,
                r.out.pipeline_withheld_peak,
                r.out.pipeline_commit_p50_us,
                r.out.pipeline_commit_p99_us
            )
        } else {
            String::new()
        };
        format!(
            "    {{\"mode\": \"{}\", \"runs\": {THROUGHPUT_RUNS}, \"events\": {}, \"elapsed_secs\": {:.3}, \"events_per_sec\": {:.0}, \"events_per_sec_min\": {:.0}, \"events_per_sec_max\": {:.0}, \"wal_records\": {}, \"commits\": {}, \"fsyncs\": {}{}}}",
            r.mode,
            r.out.events,
            r.out.elapsed_secs,
            r.out.events_per_sec(),
            r.min_events_per_sec,
            r.max_events_per_sec,
            r.out.wal_records,
            r.out.commits,
            r.out.fsyncs,
            pipeline
        )
        })
        .collect();
    let recovery_rows: Vec<String> = sweep
        .iter()
        .map(|row| {
            let every = if row.checkpoint_every == u64::MAX {
                "null".to_string()
            } else {
                row.checkpoint_every.to_string()
            };
            format!(
                "    {{\"checkpoint_every_records\": {every}, \"wal_records_at_rest\": {}, \"replayed_records\": {}, \"recovered_sessions\": {}, \"recovery_secs\": {:.6}, \"bit_identical\": true}}",
                row.wal_records_at_rest,
                row.rec.replayed_records,
                row.rec.recovered_sessions,
                row.rec.recovery_secs
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persist_bench\",\n",
            "  \"config\": {{\"shards\": {}, \"sessions\": {}, \"clients\": {}, ",
            "\"dims\": {}, \"rounds\": {}, \"edits_per_round\": {}}},\n",
            "  \"throughput\": [\n{}\n  ],\n",
            "  \"recovery\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\"fsyncs\": {}, \"commits\": {}, \"grouped\": {}, ",
            "\"ratio_pipelined_vs_off\": {:.3}, \"required_ratio\": 0.5, ",
            "\"gate_requires_cpus\": 4, \"host_cpus\": {}, \"armed\": {}, \"pass\": {}}}\n",
            "}}\n"
        ),
        drive.shards,
        drive.sessions,
        drive.clients,
        drive.dims,
        drive.rounds,
        drive.edits_per_round,
        throughput_rows.join(",\n"),
        recovery_rows.join(",\n"),
        pipe.out.fsyncs,
        pipe.out.commits,
        grouped,
        pipe_ratio,
        host_cpus,
        armed,
        pass
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(path, &json).expect("write BENCH_persist.json");
    println!("wrote {path}");
    assert!(
        pass,
        "acceptance failed: grouped={grouped} ({} fsyncs / {} commits), \
         pipelined ratio {pipe_ratio:.3} (floor 0.5 where armed)",
        pipe.out.fsyncs, pipe.out.commits
    );
}

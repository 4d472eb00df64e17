//! `svcbench` — the deadlock service's end-to-end benchmark with a
//! traced per-layer split.
//!
//! ```text
//! svcbench --workload <wire_rtt|detect_mix|avoid_durable> --seed <n>
//!          --seconds <s> --trace <0|1> [--wal-dir <dir>]
//! ```
//!
//! One generator thread drives the real `CoreRuntime` over loopback TCP
//! with a seeded trace and checks every reply against the in-process
//! oracle. `--trace 0` prints the end-to-end metrics. `--trace 1`
//! measures half the run untraced for counters and half with a root span
//! per request, replays one pass through each layer's public functions,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object; a human summary goes to standard error. See
//! `SETUP.md` for the workloads and what each metric should move.

mod outside;
mod replay;
mod spans;
mod trace;
mod wire;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use deltaos_core::par;
use deltaos_service::{CoreConfig, CoreRuntime, DurabilityConfig, FsyncPolicy, ShardStats};
use deltaos_store::{init_dir, ShardStore};

use spans::{median, Clock, Latencies, Span, SpanLog, ROOT};
use trace::{Trace, Workload};
use wire::{Conn, Outcome, Sink};

#[global_allocator]
static ALLOC: outside::CountingAlloc = outside::CountingAlloc;

/// Everything the benchmark writes lives under this directory of the
/// working directory.
const RUN_DIR: &str = ".svcbench_run";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The pipelined group commit's record cap: above the durable window, so
/// a flush fires when the loop runs out of frames and covers all of them.
const MAX_RECORDS: u32 = 4 * trace::DURABLE_DEPTH as u32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    wal_dir: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut wal_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for --seconds: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--wal-dir" => wal_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        wal_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            eprintln!(
                "usage: svcbench --workload <wire_rtt|detect_mix|avoid_durable> --seed <n> \
                 --seconds <s> --trace <0|1> [--wal-dir <existing dir>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The durable workload's store directory: a directory of its own under
/// `requested` — which must already exist, so a missing memory-backed
/// mount fails the run instead of silently landing the WAL on another
/// disk — or under the run directory.
fn wal_dir(requested: Option<&Path>) -> Result<PathBuf, String> {
    match requested {
        Some(dir) if dir.is_dir() => Ok(dir.join("svcbench-wal")),
        Some(dir) => Err(format!("WAL directory {} does not exist", dir.display())),
        None => Ok(Path::new(RUN_DIR).join("wal")),
    }
}

/// Writes and syncs the WAL that set-up recovers, before any timer. A
/// set-up that serves no request leaves it as written, so every set-up
/// recovers the same log; `set_up` checks the recovered count.
fn write_wal(dir: &Path, trace: &Trace) -> Result<(), String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    init_dir(dir, 1).map_err(|e| e.to_string())?;
    let (mut store, _) = ShardStore::open(dir, 0, FsyncPolicy::Os).map_err(|e| e.to_string())?;
    for op in &trace.wal_prefix {
        store.append(op);
    }
    store.commit().map_err(|e| e.to_string())?;
    store.sync().map_err(|e| e.to_string())
}

fn core_config(trace: &Trace, wal: Option<&Path>) -> CoreConfig {
    CoreConfig {
        loops: 1,
        shards: 1,
        pin_cpus: true,
        durability: wal.map(|dir| DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Pipelined {
                max_records: MAX_RECORDS,
                deadline: Duration::from_millis(2),
            },
            // One checkpoint per pass keeps the WAL bounded, so every
            // pass does the same work however long the run.
            checkpoint_every_records: trace.pass_ops() as u64,
            checkpoint_on_shutdown: false,
            repl_ack: false,
        }),
        max_pipeline: 2 * trace::DURABLE_DEPTH,
        ..CoreConfig::default()
    }
}

/// A running service with the generator's connection to it.
struct Service {
    rt: CoreRuntime,
    conn: Conn,
    loop_tid: u64,
    /// Highest VmRSS sampled at a steady point: after set-up and after
    /// each pass.
    rss_peak_kib: u64,
}

impl Service {
    fn stop(self) {
        drop(self.conn);
        self.rt.stop();
    }
}

/// Binds the service and brings it to serving: recovery (durable) or
/// opening and preloading every session (memory-only). Returns the
/// service and the seconds from bind to serving.
fn set_up(
    trace: &Trace,
    wal: Option<&Path>,
    clock: &Clock,
    lat: &mut Latencies,
    outcome: &mut Outcome,
) -> Result<(Service, f64), String> {
    let t0 = Instant::now();
    let rt = CoreRuntime::bind("127.0.0.1:0", core_config(trace, wal))
        .map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::connect(rt.local_addr()).map_err(|e| format!("connect: {e}"))?;
    if !trace.setup.ops.is_empty() {
        let o = wire::drive(
            &mut conn,
            &trace.setup,
            trace.depth,
            clock,
            &mut Sink { lat, roots: None },
        );
        outcome.add(&o);
    }
    let secs = t0.elapsed().as_secs_f64();
    let loop_tid = outside::tid_named("deltaos-core-0").ok_or("no service loop thread")?;
    if wal.is_some() {
        let replayed: u64 = rt.recovery().iter().map(|r| r.replayed_records).sum();
        let live: u64 = rt.recovery().iter().map(|r| r.live_sessions).sum();
        if replayed != trace.wal_prefix.len() as u64 || live != trace.oracle.brokers.len() as u64 {
            return Err(format!(
                "recovery replayed {replayed} records into {live} sessions, expected {} into {}",
                trace.wal_prefix.len(),
                trace.oracle.brokers.len()
            ));
        }
    }
    let rss_peak_kib = outside::rss_kib().0;
    Ok((
        Service {
            rt,
            conn,
            loop_tid,
            rss_peak_kib,
        },
        secs,
    ))
}

/// One measured pass.
struct Pass {
    ops: u64,
    secs: f64,
    cpu_ns: u64,
}

/// Repeats whole passes until `seconds` have elapsed (at least one),
/// stopping early if a connection breaks.
fn measure(
    svc: &mut Service,
    trace: &Trace,
    clock: &Clock,
    seconds: f64,
    lat: &mut Latencies,
    mut roots: Option<&mut Vec<Span>>,
    outcome: &mut Outcome,
) -> Vec<Pass> {
    let generator = outside::current_tid().unwrap_or(0);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    loop {
        let cpu0 = outside::service_cpu_ns(generator);
        let t0 = Instant::now();
        let o = wire::drive(
            &mut svc.conn,
            &trace.pass,
            trace.depth,
            clock,
            &mut Sink {
                lat,
                roots: roots.take(),
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        let cpu_ns = outside::service_cpu_ns(generator) - cpu0;
        svc.rss_peak_kib = svc.rss_peak_kib.max(outside::rss_kib().0);
        outcome.add(&o);
        passes.push(Pass {
            ops: o.attempted,
            secs,
            cpu_ns,
        });
        if o.transport > 0 || Instant::now() >= end {
            return passes;
        }
    }
}

fn ops_per_s(passes: &[Pass]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.ops as f64 / p.secs)
            .collect::<Vec<_>>(),
    )
}

fn cpu_us_per_op(passes: &[Pass]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.cpu_ns as f64 / 1e3 / p.ops as f64)
            .collect::<Vec<_>>(),
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run(args: &Args) -> Result<String, String> {
    let clock = Clock::new();
    let t_gen = Instant::now();
    let mut trace = trace::generate(args.workload, args.seed);
    let gen_secs = t_gen.elapsed().as_secs_f64();
    if trace.tally.rejected != 0 {
        return Err(format!(
            "trace holds {} rejected events",
            trace.tally.rejected
        ));
    }
    if args.workload == Workload::DetectMix && trace.tally.deadlocks == 0 {
        return Err("detect_mix trace probes no deadlock".into());
    }
    fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let wal = if args.workload.durable() {
        let dir = wal_dir(args.wal_dir.as_deref())?;
        write_wal(&dir, &trace)?;
        Some(dir)
    } else {
        None
    };

    // The generator and the service loop share CPU 0; threads spawned
    // from here on inherit the pin.
    let pinned = par::pin_current_thread(0);
    outside::mark_generator();
    let mut lat = Latencies::new();
    eprintln!(
        "svcbench: {} seed {} | trace {} ops/pass, {} in flight on one connection, generated in {:.2}s (untimed) | generator {} CPU 0 with the loop",
        args.workload.name(),
        args.seed,
        trace.pass_ops(),
        trace.depth,
        gen_secs,
        if pinned { "pinned to" } else { "NOT pinned to" },
    );
    if let Some(dir) = &wal {
        eprintln!(
            "svcbench: WAL of {} records in {} on {}; its fsync latency is that filesystem's, not a storage device's",
            trace.wal_prefix.len(),
            dir.display(),
            outside::fs_type(dir)
        );
    }

    // The measured instance is set up first, so its memory footprint does
    // not depend on what earlier instances left in the allocator.
    outside::trim_heap();
    let rss0 = outside::rss_kib().0;
    let mut outcome = Outcome::default();
    let (mut svc, first_setup) = set_up(&trace, wal.as_deref(), &clock, &mut lat, &mut outcome)?;
    lat.clear();
    let mut metrics = if args.trace {
        traced(args, &mut trace, &mut svc, &clock, &mut lat, &mut outcome)?
    } else {
        let passes = measure(
            &mut svc,
            &trace,
            &clock,
            args.seconds,
            &mut lat,
            None,
            &mut outcome,
        );
        let rates: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.0}", p.ops as f64 / p.secs))
            .collect();
        eprintln!("svcbench: ops/s by pass: {}", rates.join(" "));
        eprintln!(
            "svcbench: {} passes, {} latency samples; p50/p90/p99 = {:.1}/{:.1}/{:.1} us; VmRSS {rss0} KiB before set-up, peak {} KiB",
            passes.len(),
            lat.len(),
            lat.percentile(50.0) as f64 / 1e3,
            lat.percentile(90.0) as f64 / 1e3,
            lat.percentile(99.0) as f64 / 1e3,
            svc.rss_peak_kib,
        );
        vec![
            ("ops_per_s", ops_per_s(&passes), "1/s"),
            ("p50_us", lat.percentile(50.0) as f64 / 1e3, "us"),
            ("p90_us", lat.percentile(90.0) as f64 / 1e3, "us"),
            ("cpu_us_per_op", cpu_us_per_op(&passes), "us"),
            (
                "rss_mb",
                svc.rss_peak_kib.saturating_sub(rss0) as f64 / 1024.0,
                "MB",
            ),
        ]
    };
    let recovered: u64 = svc.rt.recovery().iter().map(|r| r.replayed_records).sum();
    svc.stop();

    // More set-ups, so `setup_s` is a median. The measured run appended
    // to the WAL, so the recovered log is written afresh first.
    if let Some(dir) = &wal {
        write_wal(dir, &trace)?;
    }
    let mut setup_secs = vec![first_setup];
    for _ in 1..SETUPS {
        let (s, secs) = set_up(&trace, wal.as_deref(), &clock, &mut lat, &mut outcome)?;
        setup_secs.push(secs);
        s.stop();
    }
    let setup_s = median(&setup_secs);
    eprintln!("svcbench: set-up seconds {setup_secs:?}");
    if args.trace {
        let rate = if wal.is_some() {
            recovered as f64 / setup_s
        } else {
            0.0
        };
        metrics.push(("durable.recovery_records_per_s", rate, "1/s"));
        for (name, value, unit) in &metrics {
            eprintln!("svcbench:   {name:<34} {value:>14.4} {unit}");
        }
    } else {
        metrics.push(("setup_s", setup_s, "s"));
    }
    if let Some(dir) = &wal {
        let _ = fs::remove_dir_all(dir);
    }
    Ok(result_line(&outcome, &metrics))
}

/// One metric: name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// The traced run: an untraced half for counters, a traced half with
/// root spans, then the in-process replay of one pass. Returns every
/// per-layer metric but the recovery rate, which needs the set-up median.
fn traced(
    args: &Args,
    trace: &mut Trace,
    svc: &mut Service,
    clock: &Clock,
    lat: &mut Latencies,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let half = args.seconds / 2.0;
    let stats = |svc: &mut Service| -> Result<ShardStats, String> {
        svc.conn.shard_stats().map_err(|e| format!("stats: {e}"))
    };
    let s0 = stats(svc)?;
    let fe0 = svc.rt.frontend_stats();
    let (a0, b0) = outside::service_allocs();
    let cs0 = outside::ctx_switches(svc.loop_tid);
    let plain = measure(svc, trace, clock, half, lat, None, outcome);
    let cs1 = outside::ctx_switches(svc.loop_tid);
    let (a1, b1) = outside::service_allocs();
    let fe1 = svc.rt.frontend_stats();
    let s1 = stats(svc)?;
    let ops: u64 = plain.iter().map(|p| p.ops).sum();
    let plain_passes = plain.len() as u64;

    lat.clear();
    let mut roots = Vec::with_capacity(trace.pass_ops());
    let spans_pass = measure(svc, trace, clock, half, lat, Some(&mut roots), outcome);
    let logged_per_flush = ratio(
        if args.workload.durable() { ops } else { 0 },
        s1.pipeline_fsyncs - s0.pipeline_fsyncs,
    );
    let sync_every = if logged_per_flush >= 1.0 {
        logged_per_flush.round() as u64
    } else {
        trace::DURABLE_DEPTH as u64
    };

    let mut log = SpanLog::default();
    let mut parents = vec![ROOT; trace.pass_ops()];
    for r in roots {
        parents[r.req as usize] = log.spans.len() as u32;
        log.spans.push(r);
    }
    let store_dir = Path::new(RUN_DIR).join("replay-wal");
    let rep = replay::replay(trace, &store_dir, sync_every, clock, &mut log, &parents)?;
    let _ = fs::remove_dir_all(&store_dir);
    outcome.attempted += rep.ops;
    outcome.mismatch += rep.mismatches;
    let spans_path = Path::new(RUN_DIR).join(format!("spans-{}.tsv", args.workload.name()));
    let mut file = std::io::BufWriter::new(
        fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    log.write_tsv(&mut file).map_err(|e| e.to_string())?;
    // Synced, so its writeback does not land in a later run's timing.
    file.into_inner()
        .map_err(|e| e.to_string())?
        .sync_all()
        .map_err(|e| e.to_string())?;

    let per_op = |name: &str| rep.layer(name).self_ns as f64 / rep.ops.max(1) as f64;
    let mut layer_self_ns = per_op("proto.decode") + per_op("proto.encode");
    for name in [
        "session.edit",
        "engine.dense_probe",
        "engine.sparse_probe",
        "engine.cache_hit",
        "engine.would_deadlock",
        "broker.acquire",
        "broker.release",
        "broker.give_up_ack",
    ] {
        layer_self_ns += per_op(name);
    }
    if args.workload.durable() {
        // The loop appends and commits inline; its fsync waits off-CPU.
        layer_self_ns += per_op("store.append") + per_op("store.commit");
    }
    let cpu_plain = cpu_us_per_op(&plain);
    let cpu_traced = cpu_us_per_op(&spans_pass);
    let acquires = trace.tally.acquires * plain_passes;
    let frames = fe1.frames_in - fe0.frames_in;
    let us = |name: &str| rep.layer(name).mean_ns() / 1e3;
    let ns = |name: &str| rep.layer(name).mean_ns();
    let metrics = vec![
        (
            "core_runtime.ctx_switches_per_op",
            ratio(cs1 - cs0, ops),
            "count",
        ),
        (
            "core_runtime.self_us_per_op",
            cpu_plain - layer_self_ns / 1e3,
            "us",
        ),
        ("proto.decode_ns_per_op", ns("proto.decode"), "ns"),
        ("proto.encode_ns_per_op", ns("proto.encode"), "ns"),
        (
            "proto.bytes_per_op",
            ratio(
                (fe1.bytes_in - fe0.bytes_in) + (fe1.bytes_out - fe0.bytes_out),
                frames,
            ),
            "B",
        ),
        ("session.edit_ns_per_event", ns("session.edit"), "ns"),
        ("engine.dense_probe_us", us("engine.dense_probe"), "us"),
        ("engine.sparse_probe_us", us("engine.sparse_probe"), "us"),
        (
            "engine.would_deadlock_us",
            us("engine.would_deadlock"),
            "us",
        ),
        (
            "engine.cache_hit_ratio",
            ratio(s1.cache_hits - s0.cache_hits, s1.probes - s0.probes),
            "ratio",
        ),
        (
            "engine.dense_share",
            ratio(
                s1.dense_reductions - s0.dense_reductions,
                (s1.dense_reductions - s0.dense_reductions)
                    + (s1.sparse_reductions - s0.sparse_reductions),
            ),
            "ratio",
        ),
        (
            "engine.deadlock_share",
            ratio(trace.tally.deadlocks, trace.tally.probes),
            "ratio",
        ),
        ("broker.acquire_us", us("broker.acquire"), "us"),
        ("broker.release_us", us("broker.release"), "us"),
        (
            "broker.deferral_ratio",
            ratio(s1.broker_deferrals - s0.broker_deferrals, acquires),
            "ratio",
        ),
        (
            "broker.giveup_ratio",
            ratio(s1.broker_give_ups - s0.broker_give_ups, acquires),
            "ratio",
        ),
        ("store.append_ns_per_record", ns("store.append"), "ns"),
        ("store.sync_us", us("store.sync"), "us"),
        (
            "store.bytes_per_record",
            ratio(rep.wal_bytes, rep.records),
            "B",
        ),
        (
            "durable.fsyncs_per_commit",
            if args.workload.durable() {
                ratio(s1.pipeline_fsyncs - s0.pipeline_fsyncs, ops)
            } else {
                0.0
            },
            "ratio",
        ),
        ("durable.records_per_flush", logged_per_flush, "count"),
        (
            "durable.withheld_peak",
            s1.pipeline_withheld_peak as f64,
            "count",
        ),
        ("alloc.per_op", ratio(a1 - a0, ops), "count"),
        ("alloc.bytes_per_op", ratio(b1 - b0, ops), "B"),
        ("request.p99_us", lat.percentile(99.0) as f64 / 1e3, "us"),
        ("trace.overhead_us_per_op", cpu_traced - cpu_plain, "us"),
    ];
    eprintln!(
        "svcbench: traced run: {} untraced ops ({} passes), {} traced samples, replayed {} ops / {} WAL records (sync every {}), spans in {}",
        ops,
        plain_passes,
        lat.len(),
        rep.ops,
        rep.records,
        sync_every,
        spans_path.display()
    );
    eprintln!(
        "svcbench: untraced cpu_us_per_op {cpu_plain:.3}, traced {cpu_traced:.3}, tracing overhead {:.3} us/op",
        cpu_traced - cpu_plain
    );
    Ok(metrics)
}

/// The final JSON line.
fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let failed = outcome.failed();
    let correct = failed == 0 && !outcome.stalled && outcome.attempted > 0;
    if !correct {
        eprintln!("svcbench: FAILED {outcome:?}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "detect_mix",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::DetectMix);
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "wire_rtt", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn a_missing_wal_directory_is_an_error_not_a_fallback() {
        let missing = Path::new(RUN_DIR).join("no-such-wal-dir");
        let _ = fs::remove_dir_all(&missing);
        assert!(wal_dir(Some(&missing)).is_err());
        assert!(!missing.exists(), "nothing may be created in its place");
    }

    #[test]
    fn result_line_counts_failures() {
        let ok = Outcome {
            attempted: 10,
            ok: 10,
            ..Outcome::default()
        };
        let line = result_line(&ok, &[("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let bad = Outcome {
            attempted: 10,
            ok: 8,
            busy: 1,
            transport: 1,
            ..Outcome::default()
        };
        assert!(result_line(&bad, &[])
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
    }
}

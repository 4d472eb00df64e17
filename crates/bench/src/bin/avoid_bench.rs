//! Broker sweep: avoidance-off vs metered vs fast-path throughput, plus
//! the waiter-wakeup latency distribution of blocked acquires.
//!
//! Four drives against one live runtime through its in-process
//! [`Client`], plus one over the wire:
//!
//! * **probe** — a plain detection session fed random edit/probe
//!   batches: the pre-broker baseline.
//! * **off** — the identical workload on a session opened through
//!   `OpenAvoid(Off)`. The broker's admission split must cost nothing:
//!   the acceptance gate requires off-throughput within 5% of probe.
//! * **metered** / **fastpath** — the same random acquire/release
//!   command trace through a `Metered` (cycle-costed SwDaa) and a
//!   `FastPath` (engine-probed avoider) broker session.
//! * **wakeup** — a second thread parks `wait = true` acquires on a held
//!   resource; the main thread releases it and the histogram records
//!   release-to-grant latency (the push path through the waiter table).
//! * **wire_wakeup** — the same release-to-grant measurement through the
//!   thread-per-core [`CoreRuntime`] wire path: the waiter parks over
//!   one TCP connection, the releaser releases over another, and the
//!   grant is *pushed* to the parked connection as a cross-loop message
//!   (no reply channel, no poll tick).
//!
//! Writes `BENCH_avoid.json` at the repository root. `--smoke` runs a
//! seconds-free miniature (debug builds allowed, no JSON, no perf gate)
//! for CI.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Instant;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    AvoidanceMode, Client, CoreConfig, CoreRuntime, Event, Request, Response, ServiceError,
    SessionId, TcpClient,
};
use deltaos_sim::Histogram;
use rand::{Rng, SeedableRng, StdRng};

struct Drive {
    dims: u16,
    /// Edit/probe batches per throughput run (probe + off sections).
    batches: usize,
    events_per_batch: usize,
    /// Acquire/release commands per broker run (metered + fastpath).
    commands: usize,
    /// Blocked-acquire wakeups sampled.
    wakeups: usize,
    /// Best-of-N throughput repetitions (noise control for the gate).
    reps: usize,
}

const FULL: Drive = Drive {
    dims: 16,
    batches: 2000,
    events_per_batch: 32,
    commands: 60_000,
    wakeups: 400,
    reps: 5,
};

const SMOKE: Drive = Drive {
    dims: 8,
    batches: 40,
    events_per_batch: 8,
    commands: 400,
    wakeups: 10,
    reps: 1,
};

fn ok<T>(result: Result<T, ServiceError>) -> T {
    result.unwrap_or_else(|e| panic!("service call failed: {e}"))
}

/// One random session event; ids in-range for `dims`×`dims`.
fn random_event(rng: &mut StdRng, dims: u16) -> Event {
    let p = ProcId(rng.gen_range(0..dims));
    let q = ResId(rng.gen_range(0..dims));
    match rng.gen_range(0..8u32) {
        0..=2 => Event::Request { p, q },
        3 | 4 => Event::Grant { q, p },
        5 => Event::Release { q, p },
        _ => Event::WouldDeadlock { p, q },
    }
}

/// Events/sec of the edit/probe workload on `sid` — identical trace for
/// the probe baseline and the avoidance-off session (same seed).
fn edit_probe_run(client: &Client, sid: SessionId, drive: &Drive) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xAB0FF);
    let mut events = 0u64;
    let t0 = Instant::now();
    for _ in 0..drive.batches {
        let batch: Vec<Event> = (0..drive.events_per_batch)
            .map(|_| random_event(&mut rng, drive.dims))
            .collect();
        events += batch.len() as u64;
        ok(client.batch(sid, batch));
    }
    events as f64 / t0.elapsed().as_secs_f64()
}

/// Commands/sec of a random acquire/release trace through a broker
/// session — the same trace for both engine modes (same seed). Tracks
/// held edges so releases mostly hit owners and the RAG stays live.
fn broker_run(client: &Client, sid: SessionId, drive: &Drive) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xDAA0);
    let dims = drive.dims;
    let mut held: Vec<(u16, u16)> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..drive.commands {
        if !held.is_empty() && rng.gen_range(0..3u32) == 0 {
            let (pi, qi) = held.swap_remove(rng.gen_range(0..held.len()));
            ok(client.broker_release(sid, ProcId(pi), ResId(qi)));
        } else {
            let (pi, qi) = (rng.gen_range(0..dims), rng.gen_range(0..dims));
            let resp = ok(client.acquire(sid, ProcId(pi), ResId(qi), false));
            if matches!(resp, Response::Granted { .. }) {
                held.push((pi, qi));
            }
        }
    }
    drive.commands as f64 / t0.elapsed().as_secs_f64()
}

/// Release-to-grant latency of blocked acquires: the main thread owns
/// `q0` as `p0`, a waiter thread parks `Acquire(p1, q0, wait = true)`,
/// and each sample times the main thread's release against the waiter's
/// grant receipt.
fn wakeup_run(service: &CoreRuntime, drive: &Drive) -> Histogram {
    let client = service.client();
    let sid = ok(client.open_avoid(2, 2, AvoidanceMode::FastPath));
    ok(client.acquire(sid, ProcId(0), ResId(0), false));

    let barrier = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Instant>();
    let waiter = {
        let client = service.client();
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            barrier.wait();
            if stop.load(Ordering::Acquire) {
                return;
            }
            // Parks until the main thread's release pushes the grant.
            ok(client.acquire(sid, ProcId(1), ResId(0), true));
            tx.send(Instant::now()).unwrap();
            // Hand the resource back; the main thread's own waiting
            // acquire takes it over for the next round.
            ok(client.broker_release(sid, ProcId(1), ResId(0)));
        })
    };

    let mut hist = Histogram::new();
    for _ in 0..drive.wakeups {
        barrier.wait();
        // The release must arbitrate over a *queued* waiter, not an
        // empty table — wait until the shard reports it.
        loop {
            let waiting: u64 = ok(client.stats())
                .iter()
                .map(|s| s.counter("service.broker_waiters"))
                .sum();
            if waiting >= 1 {
                break;
            }
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        ok(client.broker_release(sid, ProcId(0), ResId(0)));
        let granted_at = rx.recv().unwrap();
        hist.record(granted_at.duration_since(t0).as_nanos() as u64);
        // Reclaim the resource for the next round (blocks until the
        // waiter thread's hand-back if it has not happened yet).
        ok(client.acquire(sid, ProcId(0), ResId(0), true));
    }
    stop.store(true, Ordering::Release);
    barrier.wait();
    waiter.join().expect("waiter thread panicked");
    ok(client.close(sid));
    hist
}

/// Release-to-grant latency of blocked acquires over the fused
/// thread-per-core runtime's wire path. Same choreography as
/// [`wakeup_run`], but waiter and releaser are two TCP connections into
/// a [`CoreRuntime`], so each grant crosses the runtime as a pushed
/// message to the parked connection's loop.
fn wire_wakeup_run(drive: &Drive) -> Histogram {
    let runtime = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            loops: 0, // auto: one pinned loop per host CPU
            shards: 2,
            ..CoreConfig::default()
        },
    )
    .expect("bind thread-per-core runtime");
    let addr = runtime.local_addr();

    let mut main = TcpClient::connect(addr).expect("connect releaser");
    let sid = match main
        .call(&Request::OpenAvoid {
            resources: 2,
            processes: 2,
            mode: AvoidanceMode::FastPath,
        })
        .expect("open_avoid")
    {
        Response::Opened(sid) => sid,
        other => panic!("open_avoid answered {other:?}"),
    };
    let grant = |resp: Response| {
        assert!(
            matches!(resp, Response::Granted { .. }),
            "expected a grant, got {resp:?}"
        );
    };
    grant(
        main.call(&Request::Acquire {
            session: sid,
            p: ProcId(0),
            q: ResId(0),
            wait: false,
        })
        .expect("seed acquire"),
    );

    let barrier = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Instant>();
    let waiter = {
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut cli = TcpClient::connect(addr).expect("connect waiter");
            loop {
                barrier.wait();
                if stop.load(Ordering::Acquire) {
                    return;
                }
                // Parks on the owning loop until the releaser's grant
                // is pushed back to this connection.
                grant(
                    cli.call(&Request::Acquire {
                        session: sid,
                        p: ProcId(1),
                        q: ResId(0),
                        wait: true,
                    })
                    .expect("blocked acquire"),
                );
                tx.send(Instant::now()).unwrap();
                cli.call(&Request::BrokerRelease {
                    session: sid,
                    p: ProcId(1),
                    q: ResId(0),
                })
                .expect("hand-back release");
            }
        })
    };

    let mut hist = Histogram::new();
    for _ in 0..drive.wakeups {
        barrier.wait();
        // Release over a *queued* waiter, not an empty table.
        loop {
            let waiting = match main.call(&Request::Stats).expect("stats") {
                Response::Stats { shards, .. } => {
                    shards.iter().map(|s| s.broker_waiters).sum::<u64>()
                }
                other => panic!("stats answered {other:?}"),
            };
            if waiting >= 1 {
                break;
            }
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        main.call(&Request::BrokerRelease {
            session: sid,
            p: ProcId(0),
            q: ResId(0),
        })
        .expect("timed release");
        let granted_at = rx.recv().unwrap();
        hist.record(granted_at.duration_since(t0).as_nanos() as u64);
        grant(
            main.call(&Request::Acquire {
                session: sid,
                p: ProcId(0),
                q: ResId(0),
                wait: true,
            })
            .expect("reclaim acquire"),
        );
    }
    stop.store(true, Ordering::Release);
    barrier.wait();
    waiter.join().expect("wire waiter thread panicked");
    match main.call(&Request::Close { session: sid }).expect("close") {
        Response::Closed => {}
        other => panic!("close answered {other:?}"),
    }
    let ticks: u64 = runtime.core_stats().iter().map(|c| c.busy_poll_ticks).sum();
    assert_eq!(
        ticks, 0,
        "fused loops must block in poll(2) through the whole wakeup drive"
    );
    runtime.stop();
    hist
}

struct Outcome {
    probe_eps: f64,
    off_eps: f64,
    metered_cps: f64,
    fastpath_cps: f64,
    wakeup: Histogram,
    wire_wakeup: Histogram,
    grants: u64,
    deferrals: u64,
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(0.0, f64::max)
}

fn run(drive: &Drive) -> Outcome {
    let service = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            shards: 4,
            ..CoreConfig::default()
        },
    )
    .expect("bind runtime");
    let client = service.client();

    // The off-vs-probe comparison feeds a 5% acceptance gate, so the
    // two must see the same machine: both sessions stay open and the
    // reps interleave (after one discarded warmup each) so frequency
    // and cache drift hit both sides equally.
    let plain = ok(client.open(drive.dims, drive.dims));
    let off = ok(client.open_avoid(drive.dims, drive.dims, AvoidanceMode::Off));
    edit_probe_run(&client, plain, drive);
    edit_probe_run(&client, off, drive);
    let mut probe_eps = 0.0f64;
    let mut off_eps = 0.0f64;
    for _ in 0..drive.reps {
        probe_eps = probe_eps.max(edit_probe_run(&client, plain, drive));
        off_eps = off_eps.max(edit_probe_run(&client, off, drive));
    }
    ok(client.close(plain));
    ok(client.close(off));

    let metered = ok(client.open_avoid(drive.dims, drive.dims, AvoidanceMode::Metered));
    let metered_cps = best_of(drive.reps, || broker_run(&client, metered, drive));
    ok(client.close(metered));

    let fast = ok(client.open_avoid(drive.dims, drive.dims, AvoidanceMode::FastPath));
    let fastpath_cps = best_of(drive.reps, || broker_run(&client, fast, drive));
    ok(client.close(fast));

    let wakeup = wakeup_run(&service, drive);
    let wire_wakeup = wire_wakeup_run(drive);

    let per_shard = service.stop();
    let mut grants = 0u64;
    let mut deferrals = 0u64;
    for s in &per_shard {
        grants += s.counter("service.broker_grants");
        deferrals += s.counter("service.broker_deferrals");
    }
    Outcome {
        probe_eps,
        off_eps,
        metered_cps,
        fastpath_cps,
        wakeup,
        wire_wakeup,
        grants,
        deferrals,
    }
}

fn report(label: &str, o: &Outcome) {
    println!("{label}:");
    println!(
        "  probe {:.0} ev/s | off {:.0} ev/s (ratio {:.3})",
        o.probe_eps,
        o.off_eps,
        o.off_eps / o.probe_eps
    );
    println!(
        "  metered {:.0} cmd/s | fastpath {:.0} cmd/s",
        o.metered_cps, o.fastpath_cps
    );
    println!(
        "  wakeup latency p50 {} ns p99 {} ns ({} samples); {} grants, {} deferrals",
        o.wakeup.percentile(0.50),
        o.wakeup.percentile(0.99),
        o.wakeup.count(),
        o.grants,
        o.deferrals
    );
    println!(
        "  wire wakeup (thread-per-core) p50 {} ns p99 {} ns ({} samples)",
        o.wire_wakeup.percentile(0.50),
        o.wire_wakeup.percentile(0.99),
        o.wire_wakeup.count()
    );
}

/// The non-empty latency buckets as a JSON array of
/// `{"lo": …, "hi": …, "samples": …}` (inclusive nanosecond bounds).
fn buckets_json(h: &Histogram) -> String {
    let entries: Vec<String> = h
        .buckets()
        .map(|(lo, hi, samples)| format!("{{\"lo\": {lo}, \"hi\": {hi}, \"samples\": {samples}}}"))
        .collect();
    format!("[{}]", entries.join(", "))
}

fn to_json(drive: &Drive, o: &Outcome, ratio: f64, pass: bool) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"avoid_bench\",\n",
            "  \"config\": {{\"dims\": {}, \"batches\": {}, \"events_per_batch\": {}, ",
            "\"commands\": {}, \"wakeups\": {}, \"reps\": {}}},\n",
            "  \"probe_events_per_sec\": {:.0},\n",
            "  \"off_events_per_sec\": {:.0},\n",
            "  \"metered_commands_per_sec\": {:.0},\n",
            "  \"fastpath_commands_per_sec\": {:.0},\n",
            "  \"broker_grants\": {},\n",
            "  \"broker_deferrals\": {},\n",
            "  \"wakeup_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"samples\": {},\n",
            "    \"buckets\": {}}},\n",
            "  \"wire_wakeup_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"samples\": {},\n",
            "    \"buckets\": {}}},\n",
            "  \"acceptance\": {{\"off_vs_probe_ratio\": {:.3}, ",
            "\"required_ratio\": 0.95, \"pass\": {}}}\n",
            "}}\n"
        ),
        drive.dims,
        drive.batches,
        drive.events_per_batch,
        drive.commands,
        drive.wakeups,
        drive.reps,
        o.probe_eps,
        o.off_eps,
        o.metered_cps,
        o.fastpath_cps,
        o.grants,
        o.deferrals,
        o.wakeup.percentile(0.50),
        o.wakeup.percentile(0.99),
        o.wakeup.count(),
        buckets_json(&o.wakeup),
        o.wire_wakeup.percentile(0.50),
        o.wire_wakeup.percentile(0.99),
        o.wire_wakeup.count(),
        buckets_json(&o.wire_wakeup),
        ratio,
        pass
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let o = run(&SMOKE);
        report("avoid_bench --smoke", &o);
        assert!(o.probe_eps > 0.0 && o.off_eps > 0.0);
        assert!(o.metered_cps > 0.0 && o.fastpath_cps > 0.0);
        assert_eq!(o.wakeup.count(), SMOKE.wakeups as u64);
        assert_eq!(o.wire_wakeup.count(), SMOKE.wakeups as u64);
        println!("smoke ok");
        return;
    }

    if cfg!(debug_assertions) {
        // Debug throughput is meaningless against the 5% gate and would
        // corrupt the tracked BENCH_avoid.json.
        eprintln!("avoid_bench: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    println!("=== avoid_bench: broker off/metered/fast-path sweep ===");
    let o = run(&FULL);
    let ratio = o.off_eps / o.probe_eps;
    let pass = ratio >= 0.95;
    report("full", &o);

    let json = to_json(&FULL, &o, ratio, pass);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_avoid.json");
    std::fs::write(path, &json).expect("write BENCH_avoid.json");
    println!("wrote {path}");
    assert!(
        pass,
        "avoidance-off throughput fell to {ratio:.3} of the probe path (floor 0.95)"
    );
}

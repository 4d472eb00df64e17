//! Multi-client stress drive of the sharded deadlock service.
//!
//! N client threads hammer M sessions (64×64 RAGs) through the
//! in-process [`Client`](deltaos_service::Client) handle, whose calls
//! post to the owning core loop's inbox, mixing edits, detection probes
//! and avoidance queries — the fleet-scale version of the paper's shared
//! DDU/DAU serving many PEs. Reports aggregate throughput (events/sec across all
//! shards) and probe round-trip latency (p50/p99 plus the raw bucket
//! distribution from the sim crate's log-linear histogram — four
//! sub-buckets per octave, so tail figures resolve to ±25% instead of
//! ±2×), and writes `BENCH_service.json` at the repository root.
//!
//! `--smoke` runs a seconds-free miniature of the same drive (debug
//! builds allowed, no JSON, no perf gate) for CI.

use std::time::Instant;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{CoreConfig, CoreRuntime, Event};
use deltaos_sim::Histogram;
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
    sessions: 64,
    clients: 8,
    dims: 64,
    rounds: 120,
    edits_per_round: 31,
};

const SMOKE: Drive = Drive {
    shards: 2,
    sessions: 8,
    clients: 2,
    dims: 16,
    rounds: 6,
    edits_per_round: 7,
};

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

struct ClientReport {
    latencies: Histogram,
}

fn drive_client(client: &deltaos_service::Client, thread_id: usize, drive: &Drive) -> ClientReport {
    let mut rng = StdRng::seed_from_u64(0x5EB5 ^ thread_id as u64);
    let per_thread = drive.sessions / drive.clients;
    let sids: Vec<_> = (0..per_thread)
        .map(|_| client.open(drive.dims, drive.dims).expect("open session"))
        .collect();
    let mut report = ClientReport {
        latencies: Histogram::new(),
    };
    for _ in 0..drive.rounds {
        for &sid in &sids {
            let batch: Vec<Event> = (0..drive.edits_per_round)
                .map(|_| random_event(&mut rng, drive.dims))
                .collect();
            if let Err(e) = client.batch(sid, batch) {
                panic!("batch failed: {e}");
            }
            // Timed single-probe round trip: inbox → owning loop → reply.
            let t0 = Instant::now();
            if let Err(e) = client.batch(sid, vec![Event::Probe]) {
                panic!("probe failed: {e}");
            }
            report.latencies.record(t0.elapsed().as_nanos() as u64);
        }
    }
    report
}

struct Outcome {
    events: u64,
    probes: u64,
    cache_hits: u64,
    elapsed_secs: f64,
    latencies: Histogram,
}

impl Outcome {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }

    fn p50_ns(&self) -> u64 {
        self.latencies.percentile(0.50)
    }

    fn p99_ns(&self) -> u64 {
        self.latencies.percentile(0.99)
    }

    fn samples(&self) -> u64 {
        self.latencies.count()
    }
}

fn run(drive: &Drive) -> Outcome {
    assert_eq!(drive.sessions % drive.clients, 0);
    // One loop per shard, so every shard executes on its own thread.
    let service = CoreRuntime::bind(
        "127.0.0.1:0",
        CoreConfig {
            loops: drive.shards,
            shards: drive.shards,
            ..CoreConfig::default()
        },
    )
    .expect("bind runtime");

    let start = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drive.clients)
            .map(|t| {
                let client = service.client();
                scope.spawn(move || drive_client(&client, t, drive))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();

    let mut latencies = Histogram::new();
    for r in &reports {
        latencies.merge(&r.latencies);
    }

    let per_shard = service.stop();
    let mut events = 0u64;
    let mut probes = 0u64;
    let mut cache_hits = 0u64;
    for s in &per_shard {
        events += s.counter("service.events");
        probes += s.counter("service.probes");
        cache_hits += s.counter("service.cache_hits");
    }

    Outcome {
        events,
        probes,
        cache_hits,
        elapsed_secs,
        latencies,
    }
}

fn report(label: &str, drive: &Drive, o: &Outcome) {
    println!(
        "{label}: {} shards, {} sessions ({}x{}), {} clients",
        drive.shards, drive.sessions, drive.dims, drive.dims, drive.clients
    );
    println!(
        "  {} events in {:.3}s -> {:.0} events/sec aggregate",
        o.events,
        o.elapsed_secs,
        o.events_per_sec()
    );
    println!(
        "  probes {} (cache hits {}), probe latency p50 {} ns p99 {} ns ({} samples)",
        o.probes,
        o.cache_hits,
        o.p50_ns(),
        o.p99_ns(),
        o.samples()
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

fn to_json(drive: &Drive, o: &Outcome, pass: bool) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service_stress\",\n",
            "  \"config\": {{\"shards\": {}, \"sessions\": {}, \"clients\": {}, ",
            "\"dims\": {}, \"rounds\": {}, \"edits_per_round\": {}}},\n",
            "  \"events\": {},\n",
            "  \"elapsed_secs\": {:.3},\n",
            "  \"events_per_sec\": {:.0},\n",
            "  \"probes\": {},\n",
            "  \"cache_hits\": {},\n",
            "  \"probe_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"samples\": {},\n",
            "    \"buckets\": {}}},\n",
            "  \"acceptance\": {{\"required_events_per_sec\": 100000, \"pass\": {}}}\n",
            "}}\n"
        ),
        drive.shards,
        drive.sessions,
        drive.clients,
        drive.dims,
        drive.rounds,
        drive.edits_per_round,
        o.events,
        o.elapsed_secs,
        o.events_per_sec(),
        o.probes,
        o.cache_hits,
        o.p50_ns(),
        o.p99_ns(),
        o.samples(),
        buckets_json(&o.latencies),
        pass
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let o = run(&SMOKE);
        report("service_stress --smoke", &SMOKE, &o);
        assert!(o.events > 0 && o.probes > 0 && o.samples() > 0);
        println!("smoke ok");
        return;
    }

    if cfg!(debug_assertions) {
        // Debug throughput is meaningless against the 100k/s gate and
        // would corrupt the tracked BENCH_service.json.
        eprintln!("service_stress: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    println!("=== service_stress: sharded multi-session deadlock service ===");
    let o = run(&FULL);
    let pass = o.events_per_sec() >= 100_000.0;
    report("full", &FULL, &o);

    let json = to_json(&FULL, &o, pass);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, &json).expect("write BENCH_service.json");
    println!("wrote {path}");
    assert!(
        pass,
        "aggregate throughput {:.0} events/sec below the 100k acceptance floor",
        o.events_per_sec()
    );
}

//! The traced replay: one pass of the trace, in process, through each
//! layer's public functions, with one span per call — decode, session
//! or broker, WAL append/commit (and a sync every N records), encode.
//! Every replayed reply is checked against the oracle's bytes too.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Duration;

use deltaos_core::engine::EngineStats;
use deltaos_service::proto::{decode_request, encode_response_into};
use deltaos_service::{Event, Request, Response};
use deltaos_store::{init_dir, FsyncPolicy, ShardStore};

use crate::spans::{self_times, Clock, SpanLog};
use crate::trace::{wal_op, Trace};

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// What one replayed pass measured.
pub struct Replay {
    pub ops: u64,
    pub records: u64,
    pub wal_bytes: u64,
    /// Replayed replies that differ from the oracle's bytes.
    pub mismatches: u64,
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Replay {
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// Names the span of one `Session::apply` by what the engine did.
fn apply_span_name(ev: Event, before: EngineStats, after: EngineStats) -> &'static str {
    match ev {
        Event::Probe if after.dense_reductions > before.dense_reductions => "engine.dense_probe",
        Event::Probe if after.sparse_reductions > before.sparse_reductions => "engine.sparse_probe",
        Event::Probe => "engine.cache_hit",
        Event::WouldDeadlock { .. } => "engine.would_deadlock",
        _ => "session.edit",
    }
}

/// Replays one pass of `trace` on its oracle state. Spans go to `log`;
/// request `j` of the pass parents its replay span under `parents[j]`
/// (the wire span of the same request) when there is one. WAL records go to a
/// fresh store in `store_dir`, synced every `sync_every` records.
pub fn replay(
    trace: &mut Trace,
    store_dir: &Path,
    sync_every: u64,
    clock: &Clock,
    log: &mut SpanLog,
    parents: &[u32],
) -> Result<Replay, String> {
    let _ = fs::remove_dir_all(store_dir);
    fs::create_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    init_dir(store_dir, 1).map_err(|e| e.to_string())?;
    let policy = FsyncPolicy::Pipelined {
        max_records: sync_every as u32,
        deadline: Duration::from_millis(2),
    };
    let (mut store, _) = ShardStore::open(store_dir, 0, policy).map_err(|e| e.to_string())?;
    let first = log.spans.len();
    let mut out = Replay {
        ops: 0,
        records: 0,
        wal_bytes: 0,
        mismatches: 0,
        layers: BTreeMap::new(),
    };
    let mut buf = Vec::new();
    let oracle = &mut trace.oracle;
    let stream = &trace.pass;
    for j in 0..stream.ops.len() {
        let id = j as u32;
        let parent = parents
            .get(id as usize)
            .copied()
            .unwrap_or(crate::spans::ROOT);
        let root = log.open(clock, "replay", parent, id);
        let req = log
            .time(clock, "proto.decode", root, id, || {
                decode_request(stream.payload(j))
            })
            .map_err(|e| format!("trace request {id} does not decode: {e}"))?;
        let resp = match &req {
            Request::Batch { session, events } => {
                let sess = &mut oracle.sessions[session.0 as usize];
                let mut results = Vec::with_capacity(events.len());
                for &ev in events {
                    let before = sess.engine_stats();
                    let span = log.open(clock, "session.apply", root, id);
                    results.push(sess.apply(ev));
                    log.close(clock, span);
                    log.spans[span as usize].name =
                        apply_span_name(ev, before, sess.engine_stats());
                }
                Response::Batch(results)
            }
            Request::Acquire { session, p, q, .. } => {
                let b = &mut oracle.brokers[session.0 as usize];
                let (resp, _) = log.time(clock, "broker.acquire", root, id, || b.acquire(*p, *q));
                match resp {
                    // The parked slot's reply is the later grant.
                    Response::Deferred { .. } => Response::Granted {
                        cycles: 0,
                        probes: 0,
                    },
                    other => other,
                }
            }
            Request::BrokerRelease { session, p, q } => {
                let b = &mut oracle.brokers[session.0 as usize];
                log.time(clock, "broker.release", root, id, || b.release(*p, *q))
                    .0
            }
            Request::GiveUpAck { session, p } => {
                let b = &mut oracle.brokers[session.0 as usize];
                log.time(clock, "broker.give_up_ack", root, id, || b.give_up_ack(*p))
                    .0
            }
            other => return Err(format!("unexpected pass request {other:?}")),
        };
        if let Some(op) = wal_op(&req) {
            log.time(clock, "store.append", root, id, || store.append(&op));
            log.time(clock, "store.commit", root, id, || store.commit())
                .map_err(|e| e.to_string())?;
            out.records += 1;
            if out.records.is_multiple_of(sync_every) {
                log.time(clock, "store.sync", root, id, || store.sync())
                    .map_err(|e| e.to_string())?;
            }
        }
        buf.clear();
        log.time(clock, "proto.encode", root, id, || {
            encode_response_into(&resp, &mut buf)
        });
        if buf != stream.expected(j) {
            out.mismatches += 1;
        }
        log.close(clock, root);
        out.ops += 1;
    }
    store.sync().map_err(|e| e.to_string())?;
    out.wal_bytes = fs::metadata(store_dir.join("wal-0.log"))
        .map_err(|e| e.to_string())?
        .len();
    let selfs = self_times(&log.spans);
    for (span, own) in log.spans[first..].iter().zip(&selfs[first..]) {
        let l = out.layers.entry(span.name).or_default();
        l.calls += 1;
        l.total_ns += span.duration_ns();
        l.self_ns += own;
    }
    Ok(out)
}

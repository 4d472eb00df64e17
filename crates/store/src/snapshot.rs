//! Session snapshots and per-shard checkpoints.
//!
//! A [`SessionSnapshot`] is a compact, self-delimiting binary image of
//! one session: the RAG's edges (grants, plus pending requests in
//! per-resource insertion order — order matters, because request-queue
//! order is part of the RAG's structural identity), the engine's
//! lifetime counters, and the engine's cached detection outcome when it
//! is still valid for the RAG's current epoch. Capturing the cached
//! outcome is what makes recovery *bit-identical*: without it, the
//! first probe after a restore would full-rebuild and re-reduce where
//! the uninterrupted run cache-hit, and the `cache_hits`/`reductions`
//! counters would diverge.
//!
//! A [`ShardCheckpoint`] bundles every live session on a shard with the
//! shard's service counters and the WAL sequence number it covers.
//! Checkpoints are written atomically (temp file + fsync + rename), so
//! an on-disk checkpoint is always either the previous complete one or
//! the new complete one — never a torn hybrid.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use deltaos_core::avoid::{GiveUpAsk, GiveUpReason};
use deltaos_core::engine::{DetectEngine, EngineStats};
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::{Priority, ProcId, Rag, ResId};

use crate::codec::{put_u16, put_u32, put_u64, put_u8, Reader};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::wal::sync_dir;

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DLSS";
/// Checkpoint format version this build reads and writes. Version 2
/// extended the engine stats block from 7 to 11 counters (the hybrid
/// dense/sparse path split and the live-edge/density gauges) and the
/// shard counters from 8 to 10 (retired path-split reductions).
/// Version 3 added the per-session avoidance-broker section (priorities,
/// parked requests, outstanding give-up asks, metered cycle totals) and
/// four retired broker counters to [`ShardCounters`].
/// Version 4 added the replication epoch after `next_session`; version 3
/// files still load (epoch 0). Slot 6 of the engine stats block is
/// reserved: it held a retired counter (column words the dense engine
/// skipped), is written as 0 and is ignored on read, so files that carry
/// a value there still load under the same version.
pub const CHECKPOINT_VERSION: u16 = 4;
/// Oldest checkpoint version this build still reads.
pub const CHECKPOINT_MIN_VERSION: u16 = 3;
/// Hard cap on a checkpoint body (64 MiB) — rejects absurd length
/// fields before any allocation.
pub const MAX_CHECKPOINT: usize = 1 << 26;

/// Durable image of one session's avoidance broker: everything an
/// [`deltaos_core::avoid::Avoider`] carries beyond the RAG itself, plus
/// the metered cycle totals and the broker's lifetime counters. Present
/// only for sessions opened with avoidance on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerSnapshot {
    /// `true` for the metered software-DAA engine, `false` for the
    /// fast-path engine-probe one.
    pub metered: bool,
    /// Arbitration priority per process (exactly `processes` entries).
    pub priorities: Vec<Priority>,
    /// R-dl-parked requests as `(p, q)` pairs, in park order (order is
    /// re-evaluation order, hence structural state).
    pub parked: Vec<(u16, u16)>,
    /// Outstanding give-up asks, in issue order.
    pub outstanding: Vec<GiveUpAsk>,
    /// Livelock resolutions fired so far.
    pub livelock_events: u64,
    /// Metered total cycles (0 for fast-path).
    pub total_cycles: u64,
    /// Metered command count (0 for fast-path).
    pub commands: u64,
    /// Resources granted by this broker (immediate + woken waiters).
    pub grants: u64,
    /// Acquires deferred (queued or parked).
    pub deferrals: u64,
    /// Give-up asks issued (R-dl + livelock).
    pub give_ups: u64,
}

fn giveup_reason_code(r: GiveUpReason) -> u8 {
    match r {
        GiveUpReason::RequestDeadlock => 1,
        GiveUpReason::RequesterSheds => 2,
        GiveUpReason::Livelock => 3,
    }
}

impl BrokerSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, self.metered as u8);
        // Priority count is implied by the session's process dimension.
        for pr in &self.priorities {
            put_u8(out, pr.level());
        }
        put_u32(out, self.parked.len() as u32);
        for &(p, q) in &self.parked {
            put_u16(out, p);
            put_u16(out, q);
        }
        put_u32(out, self.outstanding.len() as u32);
        for ask in &self.outstanding {
            put_u16(out, ask.target.0);
            put_u8(out, giveup_reason_code(ask.reason));
            put_u16(out, ask.resources.len() as u16);
            for r in &ask.resources {
                put_u16(out, r.0);
            }
        }
        for v in [
            self.livelock_events,
            self.total_cycles,
            self.commands,
            self.grants,
            self.deferrals,
            self.give_ups,
        ] {
            put_u64(out, v);
        }
    }

    fn decode_from(r: &mut Reader<'_>, processes: u16) -> Result<Self, StoreError> {
        let metered = match r.u8()? {
            0 => false,
            1 => true,
            tag => {
                return Err(StoreError::UnknownTag {
                    what: "broker engine kind",
                    tag,
                })
            }
        };
        let mut priorities = Vec::with_capacity(processes as usize);
        for _ in 0..processes {
            priorities.push(Priority::new(r.u8()?));
        }
        let parked_count = r.count(4)?;
        let mut parked = Vec::with_capacity(parked_count as usize);
        for _ in 0..parked_count {
            let p = r.u16()?;
            let q = r.u16()?;
            parked.push((p, q));
        }
        let ask_count = r.count(5)?;
        let mut outstanding = Vec::with_capacity(ask_count as usize);
        for _ in 0..ask_count {
            let target = ProcId(r.u16()?);
            let reason = match r.u8()? {
                1 => GiveUpReason::RequestDeadlock,
                2 => GiveUpReason::RequesterSheds,
                3 => GiveUpReason::Livelock,
                tag => {
                    return Err(StoreError::UnknownTag {
                        what: "give-up reason",
                        tag,
                    })
                }
            };
            let res_count = r.u16()?;
            let mut resources = Vec::with_capacity(res_count as usize);
            for _ in 0..res_count {
                resources.push(ResId(r.u16()?));
            }
            outstanding.push(GiveUpAsk {
                target,
                resources,
                reason,
            });
        }
        let mut vals = [0u64; 6];
        for v in vals.iter_mut() {
            *v = r.u64()?;
        }
        Ok(BrokerSnapshot {
            metered,
            priorities,
            parked,
            outstanding,
            livelock_events: vals[0],
            total_cycles: vals[1],
            commands: vals[2],
            grants: vals[3],
            deferrals: vals[4],
            give_ups: vals[5],
        })
    }
}

/// Durable image of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Service-wide session id.
    pub session: u64,
    /// RAG resource dimension `m`.
    pub resources: u16,
    /// RAG process dimension `n`.
    pub processes: u16,
    /// Granted edges as `(q, p)` pairs.
    pub grants: Vec<(u16, u16)>,
    /// Pending request edges as `(q, p)` pairs, in per-resource
    /// insertion order (queue order is structural RAG state).
    pub requests: Vec<(u16, u16)>,
    /// Engine lifetime counters at capture time.
    pub engine: EngineStats,
    /// The engine's cached detection outcome, if it was valid for the
    /// RAG's state at capture time.
    pub cached: Option<DetectOutcome>,
    /// The avoidance-broker section; `None` for probe-only sessions.
    pub broker: Option<BrokerSnapshot>,
}

impl SessionSnapshot {
    /// Captures `rag` + `engine` into a snapshot for `session`.
    pub fn capture(session: u64, rag: &Rag, engine: &DetectEngine) -> Self {
        let mut grants = Vec::new();
        let mut requests = Vec::new();
        for qi in 0..rag.resources() {
            let q = ResId(qi as u16);
            if let Some(p) = rag.owner(q) {
                grants.push((q.0, p.0));
            }
            for &p in rag.requesters(q) {
                requests.push((q.0, p.0));
            }
        }
        SessionSnapshot {
            session,
            resources: rag.resources() as u16,
            processes: rag.processes() as u16,
            grants,
            requests,
            engine: engine.stats(),
            cached: engine.cached_outcome_for(rag),
            broker: None,
        }
    }

    /// Appends the self-delimiting encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.session);
        put_u16(out, self.resources);
        put_u16(out, self.processes);
        put_u32(out, self.grants.len() as u32);
        for &(q, p) in &self.grants {
            put_u16(out, q);
            put_u16(out, p);
        }
        put_u32(out, self.requests.len() as u32);
        for &(q, p) in &self.requests {
            put_u16(out, q);
            put_u16(out, p);
        }
        let s = &self.engine;
        for v in [
            s.probes,
            s.cache_hits,
            s.delta_syncs,
            s.deltas_applied,
            s.full_rebuilds,
            s.reductions,
            0, // reserved slot 6, see `CHECKPOINT_VERSION`
            s.dense_reductions,
            s.sparse_reductions,
            s.live_edges,
            s.density_permille,
        ] {
            put_u64(out, v);
        }
        match self.cached {
            None => put_u8(out, 0),
            Some(o) => {
                put_u8(out, 1);
                put_u8(out, o.deadlock as u8);
                put_u32(out, o.iterations);
                put_u32(out, o.steps);
            }
        }
        match &self.broker {
            None => put_u8(out, 0),
            Some(b) => {
                put_u8(out, 1);
                b.encode_into(out);
            }
        }
    }

    /// Standalone encoding (used by the wire `Snapshot` op).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one snapshot from the front of `r`, leaving the cursor
    /// after it.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let session = r.u64()?;
        let resources = r.u16()?;
        let processes = r.u16()?;
        if resources == 0 || processes == 0 {
            return Err(StoreError::Invalid {
                what: "zero snapshot dimension",
            });
        }
        let grant_count = r.count(4)?;
        if grant_count as usize > resources as usize {
            // Single-unit resources: at most one grant per resource.
            return Err(StoreError::Invalid {
                what: "more grants than resources",
            });
        }
        let mut grants = Vec::with_capacity(grant_count as usize);
        for _ in 0..grant_count {
            let q = r.u16()?;
            let p = r.u16()?;
            grants.push((q, p));
        }
        let request_count = r.count(4)?;
        let mut requests = Vec::with_capacity(request_count as usize);
        for _ in 0..request_count {
            let q = r.u16()?;
            let p = r.u16()?;
            requests.push((q, p));
        }
        let mut vals = [0u64; 11];
        for v in vals.iter_mut() {
            *v = r.u64()?;
        }
        let engine = EngineStats {
            probes: vals[0],
            cache_hits: vals[1],
            delta_syncs: vals[2],
            deltas_applied: vals[3],
            full_rebuilds: vals[4],
            reductions: vals[5],
            // vals[6] is the reserved slot, ignored on read.
            dense_reductions: vals[7],
            sparse_reductions: vals[8],
            live_edges: vals[9],
            density_permille: vals[10],
        };
        let cached = match r.u8()? {
            0 => None,
            1 => {
                let deadlock = match r.u8()? {
                    0 => false,
                    1 => true,
                    tag => {
                        return Err(StoreError::UnknownTag {
                            what: "snapshot bool",
                            tag,
                        })
                    }
                };
                let iterations = r.u32()?;
                let steps = r.u32()?;
                Some(DetectOutcome {
                    deadlock,
                    iterations,
                    steps,
                })
            }
            tag => {
                return Err(StoreError::UnknownTag {
                    what: "snapshot option",
                    tag,
                })
            }
        };
        let broker = match r.u8()? {
            0 => None,
            1 => Some(BrokerSnapshot::decode_from(r, processes)?),
            tag => {
                return Err(StoreError::UnknownTag {
                    what: "broker option",
                    tag,
                })
            }
        };
        Ok(SessionSnapshot {
            session,
            resources,
            processes,
            grants,
            requests,
            engine,
            cached,
            broker,
        })
    }

    /// Decodes a standalone snapshot, requiring exact consumption.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes);
        let snap = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(snap)
    }

    /// Rebuilds the RAG this snapshot describes by replaying its edges
    /// in stored order, so the result is structurally identical
    /// (including request-queue order) to the captured graph.
    pub fn restore_rag(&self) -> Result<Rag, StoreError> {
        let mut rag = Rag::new(self.resources as usize, self.processes as usize);
        for &(q, p) in &self.grants {
            rag.add_grant(ResId(q), ProcId(p))
                .map_err(|_| StoreError::Invalid {
                    what: "snapshot grant edge",
                })?;
        }
        for &(q, p) in &self.requests {
            rag.add_request(ProcId(p), ResId(q))
                .map_err(|_| StoreError::Invalid {
                    what: "snapshot request edge",
                })?;
        }
        Ok(rag)
    }
}

/// Mirror of the shard worker's service counters, carried in a
/// checkpoint so `service.*` stats survive a restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Events applied.
    pub events: u64,
    /// Batches processed.
    pub batches: u64,
    /// Detection probes run.
    pub probes: u64,
    /// Events rejected.
    pub rejected: u64,
    /// Sessions opened on this shard.
    pub sessions_opened: u64,
    /// Sessions closed on this shard.
    pub sessions_closed: u64,
    /// Cache hits retired with closed sessions.
    pub retired_cache_hits: u64,
    /// Reductions retired with closed sessions.
    pub retired_reductions: u64,
    /// Dense-path reductions retired with closed sessions.
    pub retired_dense_reductions: u64,
    /// Sparse-path reductions retired with closed sessions.
    pub retired_sparse_reductions: u64,
    /// Broker grants retired with closed sessions.
    pub retired_broker_grants: u64,
    /// Broker deferrals retired with closed sessions.
    pub retired_broker_deferrals: u64,
    /// Broker give-up asks retired with closed sessions.
    pub retired_broker_give_ups: u64,
    /// Broker livelock resolutions retired with closed sessions.
    pub retired_broker_livelocks: u64,
}

/// One shard's complete durable state at a point in the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// Shard index this checkpoint belongs to.
    pub shard: u32,
    /// Highest WAL sequence number whose effects are included. WAL
    /// records with `seq <= last_seq` are skipped on replay, which makes
    /// a crash between checkpoint rename and WAL truncation harmless.
    pub last_seq: u64,
    /// Highest session id ever opened on this shard (0 if none) —
    /// recovery seeds the service-wide id allocator above it so live
    /// ids are never reissued.
    pub next_session: u64,
    /// Replication epoch at capture time (0 before any promotion). The
    /// checkpoint carries it because compaction truncates the
    /// epoch-stamped WAL records it would otherwise be recovered from.
    pub epoch: u64,
    /// Shard service counters at capture time.
    pub counters: ShardCounters,
    /// Every live session on the shard.
    pub sessions: Vec<SessionSnapshot>,
}

impl ShardCheckpoint {
    /// Encodes the checkpoint body (everything after the file header).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.shard);
        put_u64(&mut out, self.last_seq);
        put_u64(&mut out, self.next_session);
        put_u64(&mut out, self.epoch);
        let c = &self.counters;
        for v in [
            c.events,
            c.batches,
            c.probes,
            c.rejected,
            c.sessions_opened,
            c.sessions_closed,
            c.retired_cache_hits,
            c.retired_reductions,
            c.retired_dense_reductions,
            c.retired_sparse_reductions,
            c.retired_broker_grants,
            c.retired_broker_deferrals,
            c.retired_broker_give_ups,
            c.retired_broker_livelocks,
        ] {
            put_u64(&mut out, v);
        }
        put_u32(&mut out, self.sessions.len() as u32);
        for s in &self.sessions {
            s.encode_into(&mut out);
        }
        out
    }

    /// Decodes a checkpoint body in the current format, requiring exact
    /// consumption.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode_body_versioned(bytes, CHECKPOINT_VERSION)
    }

    /// Decodes a checkpoint body written at `version` (v3 has no epoch
    /// field and loads as epoch 0), requiring exact consumption.
    pub fn decode_body_versioned(bytes: &[u8], version: u16) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes);
        let shard = r.u32()?;
        let last_seq = r.u64()?;
        let next_session = r.u64()?;
        let epoch = if version >= 4 { r.u64()? } else { 0 };
        let mut vals = [0u64; 14];
        for v in vals.iter_mut() {
            *v = r.u64()?;
        }
        let counters = ShardCounters {
            events: vals[0],
            batches: vals[1],
            probes: vals[2],
            rejected: vals[3],
            sessions_opened: vals[4],
            sessions_closed: vals[5],
            retired_cache_hits: vals[6],
            retired_reductions: vals[7],
            retired_dense_reductions: vals[8],
            retired_sparse_reductions: vals[9],
            retired_broker_grants: vals[10],
            retired_broker_deferrals: vals[11],
            retired_broker_give_ups: vals[12],
            retired_broker_livelocks: vals[13],
        };
        // A session snapshot is ≥ 70 bytes; 13 is the cheap lower bound
        // used purely to reject absurd counts before allocation.
        let session_count = r.count(13)?;
        let mut sessions = Vec::with_capacity(session_count as usize);
        for _ in 0..session_count {
            sessions.push(SessionSnapshot::decode_from(&mut r)?);
        }
        r.finish()?;
        Ok(ShardCheckpoint {
            shard,
            last_seq,
            next_session,
            epoch,
            counters,
            sessions,
        })
    }

    /// Serializes the full checkpoint file: magic, version, body length,
    /// body CRC32, body.
    pub fn encode_file(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 14);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u16(&mut out, CHECKPOINT_VERSION);
        put_u32(&mut out, body.len() as u32);
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Parses a full checkpoint file.
    pub fn decode_file(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 14 {
            return Err(StoreError::Truncated);
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(StoreError::BadMagic { what: "checkpoint" });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if !(CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion { version });
        }
        let body_len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
        if body_len > MAX_CHECKPOINT {
            return Err(StoreError::Oversized {
                len: body_len as u64,
            });
        }
        let stored = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
        let body = &bytes[14..];
        if body.len() < body_len {
            return Err(StoreError::Truncated);
        }
        if body.len() > body_len {
            return Err(StoreError::TrailingBytes {
                extra: body.len() - body_len,
            });
        }
        let computed = crc32(body);
        if computed != stored {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        Self::decode_body_versioned(body, version)
    }

    /// Writes the checkpoint to `path` atomically: temp file in the
    /// same directory, fsync, rename over the target, directory fsync.
    pub fn write_atomic(&self, path: &Path) -> Result<(), StoreError> {
        let dir = path.parent().ok_or(StoreError::Invalid {
            what: "checkpoint path",
        })?;
        let tmp = path.with_extension("tmp");
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&self.encode_file())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        sync_dir(dir)?;
        Ok(())
    }

    /// Loads and validates the checkpoint at `path`; `Ok(None)` when the
    /// file does not exist (first start).
    pub fn load(path: &Path) -> Result<Option<Self>, StoreError> {
        let mut f = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        Ok(Some(Self::decode_file(&bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_session() -> (Rag, DetectEngine) {
        let mut rag = Rag::new(4, 3);
        let mut engine = DetectEngine::new(4, 3);
        rag.add_grant(ResId(0), ProcId(0)).unwrap();
        rag.add_grant(ResId(1), ProcId(1)).unwrap();
        rag.add_request(ProcId(0), ResId(1)).unwrap();
        rag.add_request(ProcId(2), ResId(1)).unwrap();
        rag.add_request(ProcId(1), ResId(0)).unwrap();
        engine.probe(&rag);
        engine.probe(&rag); // second probe lands in the result cache
        (rag, engine)
    }

    #[test]
    fn snapshot_roundtrips_and_rebuilds_the_same_rag() {
        let (rag, engine) = sample_session();
        let snap = SessionSnapshot::capture(7, &rag, &engine);
        let decoded = SessionSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert!(
            decoded.cached.is_some(),
            "valid cached outcome must be captured"
        );
        let rebuilt = decoded.restore_rag().unwrap();
        assert_eq!(rebuilt, rag, "structural equality incl. request order");
    }

    #[test]
    fn restored_engine_matches_live_counters() {
        let (rag, engine) = sample_session();
        let snap = SessionSnapshot::capture(7, &rag, &engine);
        let rebuilt = snap.restore_rag().unwrap();
        let mut restored = DetectEngine::new(rebuilt.resources(), rebuilt.processes());
        restored.restore(&rebuilt, snap.engine, snap.cached);
        // The next probe must cache-hit on both, keeping counters equal.
        let mut live_rag = rag;
        let mut live = engine;
        let a = live.probe(&live_rag);
        let mut rebuilt = rebuilt;
        let b = restored.probe(&rebuilt);
        assert_eq!(a, b);
        assert_eq!(live.stats(), restored.stats());
        // …and so must a probe after a further mutation.
        live_rag.add_request(ProcId(2), ResId(0)).unwrap();
        rebuilt.add_request(ProcId(2), ResId(0)).unwrap();
        assert_eq!(live.probe(&live_rag), restored.probe(&rebuilt));
        assert_eq!(live.stats(), restored.stats());
    }

    #[test]
    fn reserved_engine_slot_is_written_zero_and_ignored_on_read() {
        let (rag, engine) = sample_session();
        let snap = SessionSnapshot::capture(7, &rag, &engine);
        let mut bytes = snap.encode();
        // session, dims, two counted edge lists, then six counters.
        let edges = 4 * (snap.grants.len() + snap.requests.len());
        let slot = 8 + 2 + 2 + 4 + 4 + edges + 6 * 8;
        assert_eq!(bytes[slot..slot + 8], [0; 8]);
        // A file from a build that still kept the counter loads as well.
        bytes[slot..slot + 8].copy_from_slice(&42u64.to_le_bytes());
        assert_eq!(SessionSnapshot::decode(&bytes).unwrap(), snap);
    }

    fn sample_broker() -> BrokerSnapshot {
        BrokerSnapshot {
            metered: true,
            priorities: vec![Priority::new(1), Priority::new(2), Priority::new(3)],
            parked: vec![(2, 1)],
            outstanding: vec![GiveUpAsk {
                target: ProcId(1),
                resources: vec![ResId(1), ResId(0)],
                reason: GiveUpReason::RequestDeadlock,
            }],
            livelock_events: 4,
            total_cycles: 12345,
            commands: 17,
            grants: 9,
            deferrals: 5,
            give_ups: 3,
        }
    }

    #[test]
    fn broker_section_roundtrips() {
        let (rag, engine) = sample_session();
        let mut snap = SessionSnapshot::capture(3, &rag, &engine);
        snap.broker = Some(sample_broker());
        let decoded = SessionSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        // Fast-path brokers (no cycle totals) roundtrip too.
        let mut fast = snap.clone();
        let b = fast.broker.as_mut().unwrap();
        b.metered = false;
        b.total_cycles = 0;
        b.commands = 0;
        assert_eq!(SessionSnapshot::decode(&fast.encode()).unwrap(), fast);
    }

    #[test]
    fn broker_section_rejects_bad_tags() {
        let (rag, engine) = sample_session();
        let mut snap = SessionSnapshot::capture(3, &rag, &engine);
        snap.broker = Some(sample_broker());
        let good = snap.encode();
        // Every truncation yields a typed error, never a panic.
        for cut in 0..good.len() {
            assert!(SessionSnapshot::decode(&good[..cut]).is_err());
        }
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let (rag, engine) = sample_session();
        let ckpt = ShardCheckpoint {
            shard: 2,
            last_seq: 41,
            next_session: 11,
            epoch: 5,
            counters: ShardCounters {
                events: 9,
                probes: 2,
                ..Default::default()
            },
            sessions: vec![SessionSnapshot::capture(6, &rag, &engine), {
                let mut s = SessionSnapshot::capture(10, &rag, &engine);
                s.broker = Some(sample_broker());
                s
            }],
        };
        let decoded = ShardCheckpoint::decode_file(&ckpt.encode_file()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn v3_checkpoint_still_loads_with_epoch_zero() {
        let (rag, engine) = sample_session();
        let ckpt = ShardCheckpoint {
            shard: 1,
            last_seq: 17,
            next_session: 5,
            epoch: 0,
            counters: ShardCounters {
                events: 3,
                ..Default::default()
            },
            sessions: vec![SessionSnapshot::capture(4, &rag, &engine)],
        };
        // Hand-build a v3 file: the v4 body minus the epoch u64 (bytes
        // 20..28 of the body), stamped version 3.
        let v4_body = ckpt.encode_body();
        let mut v3_body = Vec::with_capacity(v4_body.len() - 8);
        v3_body.extend_from_slice(&v4_body[..20]);
        v3_body.extend_from_slice(&v4_body[28..]);
        let mut file = Vec::new();
        file.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u16(&mut file, 3);
        put_u32(&mut file, v3_body.len() as u32);
        put_u32(&mut file, crc32(&v3_body));
        file.extend_from_slice(&v3_body);
        let decoded = ShardCheckpoint::decode_file(&file).unwrap();
        assert_eq!(decoded, ckpt);
        // Versions outside [min, current] stay rejected.
        let mut v2 = file.clone();
        v2[4] = 2;
        assert!(matches!(
            ShardCheckpoint::decode_file(&v2),
            Err(StoreError::UnsupportedVersion { version: 2 })
        ));
        let mut v5 = file;
        v5[4] = 5;
        assert!(matches!(
            ShardCheckpoint::decode_file(&v5),
            Err(StoreError::UnsupportedVersion { version: 5 })
        ));
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let ckpt = ShardCheckpoint {
            shard: 0,
            last_seq: 0,
            next_session: 0,
            epoch: 0,
            counters: ShardCounters::default(),
            sessions: Vec::new(),
        };
        let good = ckpt.encode_file();
        assert!(matches!(
            ShardCheckpoint::decode_file(&good[..good.len() - 1]),
            Err(StoreError::Truncated)
        ));
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            ShardCheckpoint::decode_file(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            ShardCheckpoint::decode_file(&wrong_magic),
            Err(StoreError::BadMagic { .. })
        ));
        let mut extra = good;
        extra.push(0);
        assert!(matches!(
            ShardCheckpoint::decode_file(&extra),
            Err(StoreError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("deltaos-store-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint-0.snap");
        let ckpt = ShardCheckpoint {
            shard: 0,
            last_seq: 3,
            next_session: 1,
            epoch: 2,
            counters: ShardCounters::default(),
            sessions: Vec::new(),
        };
        assert!(ShardCheckpoint::load(&path).unwrap().is_none());
        ckpt.write_atomic(&path).unwrap();
        assert_eq!(ShardCheckpoint::load(&path).unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Per-shard write-ahead log.
//!
//! On-disk format is a stream of records:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE = crc32(payload)] [payload: len bytes]
//! payload (v2) = [seq: u64 LE] [0xE5] [epoch: u64 LE] [op bytes]
//! payload (v1) = [seq: u64 LE] [op bytes]
//! ```
//!
//! Records written since replication are **epoch-stamped** (v2): the
//! byte after the sequence number is the [`EPOCH_MARKER`] followed by
//! the primary epoch that produced the record. The marker cannot
//! collide with a v1 op tag (op tags are small integers), so v1 logs —
//! written before the version bump — still replay: a payload whose
//! ninth byte is not the marker decodes as v1 with epoch 0. Epochs fence
//! stale primaries after a failover: a promoted follower bumps its
//! epoch, and replication rejects any record stamped with a lower one.
//!
//! Sequence numbers are strictly increasing and never reset (a
//! checkpoint records `last_seq` instead of rewinding, so WAL records
//! surviving a crash between checkpoint-rename and log-truncation are
//! recognized and skipped on replay). Opening the log scans it from the
//! start and stops at the first record that is short, oversized,
//! checksum-mismatched, undecodable, or out of sequence — everything
//! after that point is a torn tail from an interrupted write and is
//! truncated away.
//!
//! Writes go through a group-commit buffer: [`WalWriter::append`]
//! stages records and [`WalWriter::commit`] applies the
//! [`FsyncPolicy`]: under `Os` it hands them to the kernel in one write,
//! under `Pipelined` it leaves them staged for the next
//! [`WalWriter::sync`].
//!
//! ## The durable-frontier invariant
//!
//! [`WalWriter::durable_seq`] is the **fsynced floor**: the highest
//! sequence number for which an `fdatasync` has returned (or that a
//! loaded checkpoint covers). It advances *only* at those two points —
//! never on [`append`](WalWriter::append), and never on a
//! [`commit`](WalWriter::commit), which does not fsync under either
//! policy.
//! Anything that reports a durable LSN — the wire `Synced{durable_lsn}`
//! barrier, `ReplicaStatus`, replication acks — must report this floor,
//! **not** the appended sequence (`next_seq - 1`): a replica acking
//! against the appended seq would treat data still in the group buffer
//! as replicated-durable, and a crash on the primary could then lose
//! acknowledged records. `durable_seq ≤ next_seq - 1` always holds;
//! the gap is [`WalWriter::unsynced_records`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

use deltaos_core::{Priority, ProcId, ResId};

use crate::codec::{put_u16, put_u32, put_u64, put_u8, Reader};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::snapshot::SessionSnapshot;

/// Hard cap on one record's payload (matches the service's wire-frame
/// cap so anything a client can send fits in one record).
pub const MAX_RECORD: usize = 1 << 20;

/// Marker byte distinguishing epoch-stamped (v2) record payloads from
/// legacy (v1) ones. Sits where a v1 payload has its op tag; op tags
/// are small integers (1..=5), so the two can never be confused.
pub const EPOCH_MARKER: u8 = 0xE5;

/// When the WAL writer calls `fsync` relative to commits.
///
/// Counter semantics (shared by both policies): `records` counts
/// appended records, `commits` counts [`WalWriter::commit`] calls that
/// had staged data (i.e. logical commit *requests*, one per logged op
/// in the service), and `fsyncs` counts actual `fdatasync` calls. Group
/// commit amortizes by making `fsyncs` ≪ `commits` — it never redefines
/// what a commit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never `fsync`; leave flushing to the OS page cache. Survives
    /// process crashes (the data is in the kernel) but not power loss.
    Os,
    /// Pipelined group commit: commits stage in the user-space buffer
    /// and both the `write` and the `fdatasync` are driven *externally*
    /// by a per-core scheduler through [`WalWriter::sync`], which
    /// batches flushes across sessions and withholds client replies
    /// until [`WalWriter::durable_seq`] covers their record — the
    /// withheld reply, not the kernel hand-off, is the durability
    /// contract. The parameters bound the scheduler: flush at
    /// `max_records` appended-but-unsynced records, or when `deadline`
    /// elapses since the oldest withheld reply, whichever is first.
    /// `max_records: 1` is one fsync per logged op.
    Pipelined {
        /// Unsynced-record count that forces a flush.
        max_records: u32,
        /// Longest a withheld reply may wait for its flush.
        deadline: Duration,
    },
}

/// One resource event applied to a session's RAG, in order. It is both
/// the service's wire event (re-exported as `deltaos_service::Event`)
/// and the event inside a [`WalOp::Batch`], so a logged batch holds the
/// very events the client sent; the wire and WAL codecs each keep their
/// own byte layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalEvent {
    /// Process `p` requests resource `q` (queued; no grant implied).
    Request {
        /// Requesting process.
        p: ProcId,
        /// Requested resource.
        q: ResId,
    },
    /// Resource `q` is granted to process `p`.
    Grant {
        /// Granted resource.
        q: ResId,
        /// Receiving process.
        p: ProcId,
    },
    /// Process `p` releases its grant on `q`, or withdraws its pending
    /// request for `q` when it is not the owner.
    Release {
        /// Released resource.
        q: ResId,
        /// Releasing process.
        p: ProcId,
    },
    /// Run deadlock detection on the session's current state. Logged
    /// although it edits nothing: it advances engine counters and the
    /// result cache, and recovery must reproduce them bit for bit.
    Probe,
    /// Avoidance query: would admitting the request edge `p → q`
    /// deadlock? The edge is applied tentatively, probed through the
    /// session's persistent engine, and removed — the session state is
    /// unchanged afterwards (logged, like `Probe`, for its counters).
    WouldDeadlock {
        /// Hypothetical requester.
        p: ProcId,
        /// Hypothetical resource.
        q: ResId,
    },
}

const EV_REQUEST: u8 = 1;
const EV_GRANT: u8 = 2;
const EV_RELEASE: u8 = 3;
const EV_PROBE: u8 = 4;
const EV_WOULD_DEADLOCK: u8 = 5;

impl WalEvent {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            WalEvent::Request { p, q } => {
                put_u8(out, EV_REQUEST);
                put_u16(out, p.0);
                put_u16(out, q.0);
            }
            WalEvent::Grant { q, p } => {
                put_u8(out, EV_GRANT);
                put_u16(out, p.0);
                put_u16(out, q.0);
            }
            WalEvent::Release { q, p } => {
                put_u8(out, EV_RELEASE);
                put_u16(out, p.0);
                put_u16(out, q.0);
            }
            WalEvent::Probe => put_u8(out, EV_PROBE),
            WalEvent::WouldDeadlock { p, q } => {
                put_u8(out, EV_WOULD_DEADLOCK);
                put_u16(out, p.0);
                put_u16(out, q.0);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let tag = r.u8()?;
        if tag == EV_PROBE {
            return Ok(WalEvent::Probe);
        }
        let p = ProcId(r.u16()?);
        let q = ResId(r.u16()?);
        match tag {
            EV_REQUEST => Ok(WalEvent::Request { p, q }),
            EV_GRANT => Ok(WalEvent::Grant { q, p }),
            EV_RELEASE => Ok(WalEvent::Release { q, p }),
            EV_WOULD_DEADLOCK => Ok(WalEvent::WouldDeadlock { p, q }),
            tag => Err(StoreError::UnknownTag {
                what: "wal event",
                tag,
            }),
        }
    }
}

/// One logged state-mutating operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Session opened with an empty `resources` × `processes` RAG.
    Open {
        /// Session id.
        session: u64,
        /// Resource dimension.
        resources: u16,
        /// Process dimension.
        processes: u16,
    },
    /// Batch of events applied to a session. Every *accepted* batch is
    /// logged — including probe-only ones — because probes advance
    /// engine counters that recovery must reproduce exactly.
    Batch {
        /// Session id.
        session: u64,
        /// The events, in wire order.
        events: Vec<WalEvent>,
    },
    /// Session closed (retires its counters into the shard's).
    Close {
        /// Session id.
        session: u64,
    },
    /// Session restored from a client-supplied snapshot (the wire
    /// `Restore` op); the snapshot itself is embedded so replay can
    /// rebuild the session without any other source.
    Restore {
        /// The embedded session image (carries its own session id);
        /// boxed so the op enum stays small for the common commands.
        snapshot: Box<SessionSnapshot>,
    },
    /// One avoidance-broker command. Broker decisions are deterministic
    /// functions of the session state, so logging the command — not the
    /// decision — is enough for replay to reconstruct priorities, parked
    /// waiters, and cycle totals bit-identically.
    Broker {
        /// Session id.
        session: u64,
        /// The brokered command.
        op: BrokerWalOp,
    },
}

/// One avoidance-broker command inside a [`WalOp::Broker`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerWalOp {
    /// Session opened with a broker attached (`metered` selects the
    /// software-DAA engine over the fast-path probe).
    Open {
        /// Resource dimension.
        resources: u16,
        /// Process dimension.
        processes: u16,
        /// Metered (cycle-accounting) engine?
        metered: bool,
    },
    /// Priority change for process `p`.
    SetPriority {
        /// Target process.
        p: ProcId,
        /// New priority.
        priority: Priority,
    },
    /// Algorithm-3 request command.
    Acquire {
        /// Requesting process.
        p: ProcId,
        /// Requested resource.
        q: ResId,
    },
    /// Algorithm-3 release command.
    Release {
        /// Releasing process.
        p: ProcId,
        /// Released resource.
        q: ResId,
    },
    /// Process `p` honors its outstanding give-up asks.
    GiveUpAck {
        /// The shedding process.
        p: ProcId,
    },
}

const BR_OPEN: u8 = 1;
const BR_SET_PRIORITY: u8 = 2;
const BR_ACQUIRE: u8 = 3;
const BR_RELEASE: u8 = 4;
const BR_GIVE_UP_ACK: u8 = 5;

impl BrokerWalOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            BrokerWalOp::Open {
                resources,
                processes,
                metered,
            } => {
                put_u8(out, BR_OPEN);
                put_u16(out, resources);
                put_u16(out, processes);
                put_u8(out, metered as u8);
            }
            BrokerWalOp::SetPriority { p, priority } => {
                put_u8(out, BR_SET_PRIORITY);
                put_u16(out, p.0);
                put_u8(out, priority.level());
            }
            BrokerWalOp::Acquire { p, q } => {
                put_u8(out, BR_ACQUIRE);
                put_u16(out, p.0);
                put_u16(out, q.0);
            }
            BrokerWalOp::Release { p, q } => {
                put_u8(out, BR_RELEASE);
                put_u16(out, p.0);
                put_u16(out, q.0);
            }
            BrokerWalOp::GiveUpAck { p } => {
                put_u8(out, BR_GIVE_UP_ACK);
                put_u16(out, p.0);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.u8()? {
            BR_OPEN => {
                let resources = r.u16()?;
                let processes = r.u16()?;
                if resources == 0 || processes == 0 {
                    return Err(StoreError::Invalid {
                        what: "zero broker open dimension",
                    });
                }
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
                BrokerWalOp::Open {
                    resources,
                    processes,
                    metered,
                }
            }
            BR_SET_PRIORITY => BrokerWalOp::SetPriority {
                p: ProcId(r.u16()?),
                priority: Priority::new(r.u8()?),
            },
            BR_ACQUIRE => BrokerWalOp::Acquire {
                p: ProcId(r.u16()?),
                q: ResId(r.u16()?),
            },
            BR_RELEASE => BrokerWalOp::Release {
                p: ProcId(r.u16()?),
                q: ResId(r.u16()?),
            },
            BR_GIVE_UP_ACK => BrokerWalOp::GiveUpAck {
                p: ProcId(r.u16()?),
            },
            tag => {
                return Err(StoreError::UnknownTag {
                    what: "broker wal op",
                    tag,
                })
            }
        })
    }
}

const OP_OPEN: u8 = 1;
const OP_BATCH: u8 = 2;
const OP_CLOSE: u8 = 3;
const OP_RESTORE: u8 = 4;
const OP_BROKER: u8 = 5;

impl WalOp {
    /// Appends the op encoding (tag + fields) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Open {
                session,
                resources,
                processes,
            } => {
                put_u8(out, OP_OPEN);
                put_u64(out, *session);
                put_u16(out, *resources);
                put_u16(out, *processes);
            }
            WalOp::Batch { session, events } => {
                put_u8(out, OP_BATCH);
                put_u64(out, *session);
                put_u32(out, events.len() as u32);
                for ev in events {
                    ev.encode_into(out);
                }
            }
            WalOp::Close { session } => {
                put_u8(out, OP_CLOSE);
                put_u64(out, *session);
            }
            WalOp::Restore { snapshot } => {
                put_u8(out, OP_RESTORE);
                snapshot.encode_into(out);
            }
            WalOp::Broker { session, op } => {
                put_u8(out, OP_BROKER);
                put_u64(out, *session);
                op.encode_into(out);
            }
        }
    }

    /// Decodes an op, requiring exact consumption of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes);
        let op = match r.u8()? {
            OP_OPEN => {
                let session = r.u64()?;
                let resources = r.u16()?;
                let processes = r.u16()?;
                if resources == 0 || processes == 0 {
                    return Err(StoreError::Invalid {
                        what: "zero open dimension",
                    });
                }
                WalOp::Open {
                    session,
                    resources,
                    processes,
                }
            }
            OP_BATCH => {
                let session = r.u64()?;
                let count = r.count(1)?;
                let mut events = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    events.push(WalEvent::decode_from(&mut r)?);
                }
                WalOp::Batch { session, events }
            }
            OP_CLOSE => WalOp::Close { session: r.u64()? },
            OP_RESTORE => WalOp::Restore {
                snapshot: Box::new(SessionSnapshot::decode_from(&mut r)?),
            },
            OP_BROKER => WalOp::Broker {
                session: r.u64()?,
                op: BrokerWalOp::decode_from(&mut r)?,
            },
            tag => {
                return Err(StoreError::UnknownTag {
                    what: "wal op",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(op)
    }
}

/// What the opening scan found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The log ended exactly on a record boundary.
    Clean,
    /// Trailing bytes did not form a valid record (interrupted write or
    /// corruption) and were truncated away.
    Torn {
        /// Bytes dropped.
        dropped: u64,
    },
}

/// Result of scanning a WAL byte stream.
#[derive(Debug)]
pub struct WalScan {
    /// Valid records in log order as `(seq, epoch, op)`; legacy v1
    /// records carry epoch 0.
    pub records: Vec<(u64, u64, WalOp)>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Tail condition.
    pub tail: WalTail,
}

/// Scans `bytes` as a WAL stream, returning every valid record and the
/// length of the valid prefix. Never fails: an invalid record simply
/// ends the valid prefix (that is the crash-recovery contract — under
/// `FsyncPolicy::Pipelined` a torn tail is data whose reply was never
/// released; under `FsyncPolicy::Os` it is the power-loss window).
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut prev_seq: Option<u64> = None;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let stored = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if !(8..=MAX_RECORD).contains(&len) || bytes.len() - pos - 8 < len {
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != stored {
            break;
        }
        let seq = u64::from_le_bytes([
            payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
            payload[7],
        ]);
        if prev_seq.is_some_and(|p| seq <= p) {
            break;
        }
        // v2 payloads put the epoch marker + epoch between seq and op;
        // a v1 payload's ninth byte is an op tag, never the marker.
        let (epoch, op_bytes) = if payload.len() > 8 && payload[8] == EPOCH_MARKER {
            if payload.len() < 17 {
                break;
            }
            let epoch = u64::from_le_bytes([
                payload[9],
                payload[10],
                payload[11],
                payload[12],
                payload[13],
                payload[14],
                payload[15],
                payload[16],
            ]);
            (epoch, &payload[17..])
        } else {
            (0, &payload[8..])
        };
        let Ok(op) = WalOp::decode(op_bytes) else {
            break;
        };
        records.push((seq, epoch, op));
        prev_seq = Some(seq);
        pos += 8 + len;
    }
    let valid_len = pos as u64;
    let tail = if pos == bytes.len() {
        WalTail::Clean
    } else {
        WalTail::Torn {
            dropped: (bytes.len() - pos) as u64,
        }
    };
    WalScan {
        records,
        valid_len,
        tail,
    }
}

/// Append-side of one shard's WAL with group commit.
pub struct WalWriter {
    file: File,
    buf: Vec<u8>,
    scratch: Vec<u8>,
    next_seq: u64,
    /// Epoch stamped into every appended record. 0 until a primary
    /// epoch is assigned; bumped by promotion.
    epoch: u64,
    policy: FsyncPolicy,
    /// Highest sequence number known to have reached the device (the
    /// durable-LSN frontier). Baselined to the recovered tail on open:
    /// everything the scan accepted is on disk by definition.
    durable_seq: u64,
    records: u64,
    commits: u64,
    fsyncs: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path`, scans it, truncates
    /// any torn tail, and positions the writer after the last valid
    /// record. Returns the writer and the scan (whose records the caller
    /// replays).
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<(Self, WalScan), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Existing contents are scanned and any torn tail truncated
            // just below — never blindly truncate a log on open.
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan(&bytes);
        if scan.valid_len < bytes.len() as u64 {
            file.set_len(scan.valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        let next_seq = scan.records.last().map(|(s, _, _)| s + 1).unwrap_or(1);
        // Resume at the highest epoch the surviving log carries so a
        // restarted node never stamps records below its own history.
        let epoch = scan.records.iter().map(|&(_, e, _)| e).max().unwrap_or(0);
        let writer = WalWriter {
            file,
            buf: Vec::new(),
            scratch: Vec::new(),
            next_seq,
            epoch,
            policy,
            durable_seq: next_seq - 1,
            records: 0,
            commits: 0,
            fsyncs: 0,
        };
        Ok((writer, scan))
    }

    /// Lowest sequence number the *next* appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Forces the next record's sequence number to be at least `seq`
    /// (used after loading a checkpoint whose `last_seq` is ahead of the
    /// surviving log). Sequences below the reservation are covered by
    /// the checkpoint, so the durable frontier advances with it.
    pub fn reserve_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
        self.durable_seq = self.durable_seq.max(self.next_seq - 1);
    }

    /// The epoch stamped into appended records.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the epoch stamped into subsequent records. Epochs only move
    /// forward — a lower value is ignored (fencing must never regress).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Stages one record in the group-commit buffer; returns its
    /// sequence number. Not durable until [`commit`](Self::commit).
    pub fn append(&mut self, op: &WalOp) -> u64 {
        let seq = self.next_seq;
        let epoch = self.epoch;
        self.append_record(seq, epoch, op);
        seq
    }

    /// Stages one record with an explicit sequence number and epoch — a
    /// replica mirroring its primary's log verbatim, so a promoted
    /// follower's WAL is indistinguishable from the primary's prefix.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is below the writer's next sequence number (the
    /// log would no longer scan as strictly increasing).
    pub fn append_at(&mut self, seq: u64, epoch: u64, op: &WalOp) {
        assert!(
            seq >= self.next_seq,
            "append_at would rewind the log: seq {seq} < next {}",
            self.next_seq
        );
        self.set_epoch(epoch);
        self.append_record(seq, epoch, op);
    }

    fn append_record(&mut self, seq: u64, epoch: u64, op: &WalOp) {
        self.next_seq = seq + 1;
        self.scratch.clear();
        put_u64(&mut self.scratch, seq);
        put_u8(&mut self.scratch, EPOCH_MARKER);
        put_u64(&mut self.scratch, epoch);
        op.encode_into(&mut self.scratch);
        debug_assert!(self.scratch.len() <= MAX_RECORD);
        put_u32(&mut self.buf, self.scratch.len() as u32);
        put_u32(&mut self.buf, crc32(&self.scratch));
        self.buf.extend_from_slice(&self.scratch);
        self.records += 1;
    }

    /// Hands all staged records to the kernel in one `write`.
    fn write_out(&mut self) -> Result<(), StoreError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Commits staged records per the fsync policy. No-op when nothing
    /// is staged. One call = one logical commit (the `commits` counter
    /// counts requests, not device flushes). Neither policy fsyncs here:
    /// `Os` hands the bytes to the kernel and stops there for good;
    /// `Pipelined` keeps them in the group buffer, and the scheduler's
    /// [`sync`](Self::sync) does one `write` + one `fdatasync` per flush
    /// and advances the durable frontier.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.commits += 1;
        if self.policy == FsyncPolicy::Os {
            self.write_out()?;
        }
        Ok(())
    }

    /// Flushes staged records and forces an fsync regardless of policy
    /// (shutdown / pre-checkpoint barrier, and the pipelined
    /// scheduler's group flush). Advances the durable frontier to the
    /// last appended record.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        // Staged bytes were already counted by their `commit` calls;
        // a sync is a flush, never an extra logical commit.
        self.write_out()?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.durable_seq = self.next_seq - 1;
        Ok(())
    }

    /// Discards the log's contents after a checkpoint made them
    /// redundant. Sequence numbering continues monotonically.
    pub fn truncate_all(&mut self) -> Result<(), StoreError> {
        self.buf.clear();
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Records appended since open.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Logical commits (calls with staged data) since open.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Fsyncs issued since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Highest sequence number known durable (0 when nothing is).
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Appended records not yet covered by an fsync.
    pub fn unsynced_records(&self) -> u64 {
        (self.next_seq - 1).saturating_sub(self.durable_seq)
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

/// Fsyncs a directory so a rename/create inside it is durable. On
/// non-unix targets this is a no-op (the repo's service front-end is
/// unix-only anyway).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Open {
                session: 4,
                resources: 8,
                processes: 6,
            },
            WalOp::Batch {
                session: 4,
                events: vec![
                    WalEvent::Grant {
                        q: ResId(0),
                        p: ProcId(1),
                    },
                    WalEvent::Request {
                        p: ProcId(2),
                        q: ResId(0),
                    },
                    WalEvent::Probe,
                    WalEvent::WouldDeadlock {
                        p: ProcId(3),
                        q: ResId(1),
                    },
                    WalEvent::Release {
                        q: ResId(0),
                        p: ProcId(1),
                    },
                ],
            },
            WalOp::Broker {
                session: 5,
                op: BrokerWalOp::Open {
                    resources: 4,
                    processes: 4,
                    metered: true,
                },
            },
            WalOp::Broker {
                session: 5,
                op: BrokerWalOp::SetPriority {
                    p: ProcId(2),
                    priority: Priority::new(7),
                },
            },
            WalOp::Broker {
                session: 5,
                op: BrokerWalOp::Acquire {
                    p: ProcId(2),
                    q: ResId(3),
                },
            },
            WalOp::Broker {
                session: 5,
                op: BrokerWalOp::Release {
                    p: ProcId(2),
                    q: ResId(3),
                },
            },
            WalOp::Broker {
                session: 5,
                op: BrokerWalOp::GiveUpAck { p: ProcId(2) },
            },
            WalOp::Close { session: 4 },
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deltaos-store-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal-0.log")
    }

    #[test]
    fn ops_roundtrip() {
        for op in sample_ops() {
            let mut bytes = Vec::new();
            op.encode_into(&mut bytes);
            assert_eq!(WalOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn append_commit_reopen_replays() {
        let path = tmp("roundtrip");
        let ops = sample_ops();
        {
            let (mut w, scan) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
            assert!(scan.records.is_empty());
            for op in &ops {
                w.append(op);
            }
            w.commit().unwrap();
        }
        let (w, scan) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        let replayed: Vec<WalOp> = scan.records.iter().map(|(_, _, op)| op.clone()).collect();
        assert_eq!(replayed, ops);
        assert!(scan.records.iter().all(|&(_, e, _)| e == 0));
        let seqs: Vec<u64> = scan.records.iter().map(|&(s, _, _)| s).collect();
        assert_eq!(seqs, (1..=ops.len() as u64).collect::<Vec<u64>>());
        assert_eq!(w.next_seq(), ops.len() as u64 + 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        {
            let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
            for op in sample_ops() {
                w.append(&op);
            }
            w.sync().unwrap();
        }
        // Tear the last record in half.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (w, scan) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        assert_eq!(scan.records.len(), sample_ops().len() - 1);
        assert!(matches!(scan.tail, WalTail::Torn { dropped } if dropped > 0));
        assert_eq!(w.next_seq(), sample_ops().len() as u64);
        // The truncation is persistent.
        assert_eq!(std::fs::read(&path).unwrap().len() as u64, scan.valid_len);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn corrupt_byte_cuts_the_log_at_that_record() {
        let path = tmp("corrupt");
        {
            let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
            for op in sample_ops() {
                w.append(&op);
            }
            w.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let first_len = u32::from_le_bytes([full[0], full[1], full[2], full[3]]) as usize + 8;
        let mut broken = full.clone();
        broken[first_len + 12] ^= 0xFF;
        std::fs::write(&path, &broken).unwrap();
        let (_, scan) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        assert_eq!(
            scan.records.len(),
            1,
            "records after the corrupt one are dropped too"
        );
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn pipelined_policy_defers_fsync_to_external_sync() {
        let path = tmp("pipelined");
        let policy = FsyncPolicy::Pipelined {
            max_records: 8,
            deadline: Duration::from_micros(500),
        };
        let (mut w, _) = WalWriter::open(&path, policy).unwrap();
        let op = WalOp::Close { session: 1 };
        for _ in 0..5 {
            w.append(&op);
            w.commit().unwrap();
        }
        assert_eq!(w.commits(), 5);
        assert_eq!(w.fsyncs(), 0, "fsync is the scheduler's job");
        assert_eq!(w.unsynced_records(), 5);
        // The write syscall is the scheduler's job too: nothing reaches
        // the kernel until the group flush.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 1);
        assert_eq!(w.commits(), 5, "a sync is a flush, not a commit");
        assert_eq!(scan(&std::fs::read(&path).unwrap()).records.len(), 5);
        assert_eq!(w.durable_seq(), 5);
        assert_eq!(w.unsynced_records(), 0);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn legacy_v1_records_replay_with_epoch_zero() {
        // Hand-encode the pre-epoch payload layout [seq][op] and prove
        // the scanner still accepts it (old WALs must replay).
        let mut bytes = Vec::new();
        let mut payload = Vec::new();
        for (i, op) in sample_ops().iter().enumerate() {
            payload.clear();
            put_u64(&mut payload, i as u64 + 1);
            op.encode_into(&mut payload);
            put_u32(&mut bytes, payload.len() as u32);
            put_u32(&mut bytes, crc32(&payload));
            bytes.extend_from_slice(&payload);
        }
        let scan = scan(&bytes);
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.records.len(), sample_ops().len());
        assert!(scan.records.iter().all(|&(_, e, _)| e == 0));
        let replayed: Vec<WalOp> = scan.records.iter().map(|(_, _, op)| op.clone()).collect();
        assert_eq!(replayed, sample_ops());
    }

    #[test]
    fn epoch_stamp_survives_reopen_and_never_regresses() {
        let path = tmp("epoch");
        {
            let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
            w.append(&WalOp::Close { session: 1 });
            w.commit().unwrap();
            w.set_epoch(3);
            w.append(&WalOp::Close { session: 2 });
            w.commit().unwrap();
            // Lower epochs are ignored: fencing must not regress.
            w.set_epoch(1);
            assert_eq!(w.epoch(), 3);
            w.append(&WalOp::Close { session: 3 });
            w.commit().unwrap();
        }
        let (w, scan) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        let epochs: Vec<u64> = scan.records.iter().map(|&(_, e, _)| e).collect();
        assert_eq!(epochs, vec![0, 3, 3]);
        assert_eq!(w.epoch(), 3, "reopen resumes at the highest logged epoch");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_at_mirrors_primary_seqs_and_epochs() {
        let path = tmp("mirror");
        let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        let op = WalOp::Close { session: 9 };
        // A follower applies a segment that starts past seq 1 (records
        // below the checkpoint floor were never streamed).
        w.append_at(5, 2, &op);
        w.append_at(6, 2, &op);
        w.append_at(9, 3, &op);
        w.commit().unwrap();
        let (w2, scan) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        let keys: Vec<(u64, u64)> = scan.records.iter().map(|&(s, e, _)| (s, e)).collect();
        assert_eq!(keys, vec![(5, 2), (6, 2), (9, 3)]);
        assert_eq!(w2.next_seq(), 10);
        assert_eq!(w.epoch(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    #[should_panic(expected = "append_at would rewind the log")]
    fn append_at_rejects_rewinds() {
        let path = tmp("rewind");
        let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        let op = WalOp::Close { session: 1 };
        w.append_at(4, 1, &op);
        w.append_at(3, 1, &op);
    }

    #[test]
    fn scan_never_panics_on_mutations() {
        let mut bytes = Vec::new();
        {
            let mut payload = Vec::new();
            for (i, op) in sample_ops().iter().enumerate() {
                payload.clear();
                put_u64(&mut payload, i as u64 + 1);
                op.encode_into(&mut payload);
                put_u32(&mut bytes, payload.len() as u32);
                put_u32(&mut bytes, crc32(&payload));
                bytes.extend_from_slice(&payload);
            }
        }
        for cut in 0..bytes.len() {
            let _ = scan(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] = m[i].wrapping_add(1);
            let _ = scan(&m);
        }
    }
}

//! Decoder fuzz: the wire codec must be *total* — any byte sequence
//! either decodes or returns a typed [`WireError`], and it never panics
//! or allocates unboundedly. Driven by the vendored deterministic PRNG,
//! so every failure replays from its seed.

use deltaos_core::avoid::{GiveUpAsk, GiveUpReason, ReleaseOutcome};
use deltaos_core::pdda::DetectOutcome;
use deltaos_core::{Priority, ProcId, ResId};
use deltaos_service::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    AvoidanceMode, CoreStats, ErrorCode, Event, EventResult, FrontendStats, RejectReason,
    ReplStatus, Request, Response, SessionId, ShardStats, WireError, MAX_FRAME,
};
use rand::{Rng, SeedableRng, StdRng};

fn sample_give_up_ask(rng: &mut StdRng) -> GiveUpAsk {
    GiveUpAsk {
        target: ProcId(rng.gen_range(0..64u16)),
        resources: (0..rng.gen_range(1..5usize))
            .map(|_| ResId(rng.gen_range(0..64u16)))
            .collect(),
        reason: match rng.gen_range(0..3u32) {
            0 => GiveUpReason::RequestDeadlock,
            1 => GiveUpReason::RequesterSheds,
            _ => GiveUpReason::Livelock,
        },
    }
}

fn sample_requests(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..15u32) {
        12 => Request::Subscribe {
            shard: rng.gen_range(0..16u16),
            from_seq: rng.gen_range(0..u64::MAX),
            acked_seq: rng.gen_range(0..u64::MAX),
        },
        13 => Request::ReplicaStatus {
            shard: rng.gen_range(0..16u16),
        },
        14 => Request::Promote {
            shard: rng.gen_range(0..16u16),
            epoch: rng.gen_range(0..u64::MAX),
        },
        0 => Request::Open {
            resources: rng.gen_range(1..128u16),
            processes: rng.gen_range(1..128u16),
        },
        6 => Request::OpenAvoid {
            resources: rng.gen_range(1..128u16),
            processes: rng.gen_range(1..128u16),
            mode: match rng.gen_range(0..3u32) {
                0 => AvoidanceMode::Off,
                1 => AvoidanceMode::FastPath,
                _ => AvoidanceMode::Metered,
            },
        },
        7 => Request::SetPriority {
            session: SessionId(rng.gen_range(0..1000u64)),
            p: ProcId(rng.gen_range(0..64u16)),
            priority: Priority::new(rng.gen_range(0..=255u32) as u8),
        },
        8 => Request::Acquire {
            session: SessionId(rng.gen_range(0..1000u64)),
            p: ProcId(rng.gen_range(0..64u16)),
            q: ResId(rng.gen_range(0..64u16)),
            wait: rng.gen_bool(0.5),
        },
        9 => Request::BrokerRelease {
            session: SessionId(rng.gen_range(0..1000u64)),
            p: ProcId(rng.gen_range(0..64u16)),
            q: ResId(rng.gen_range(0..64u16)),
        },
        10 => Request::GiveUpAck {
            session: SessionId(rng.gen_range(0..1000u64)),
            p: ProcId(rng.gen_range(0..64u16)),
        },
        11 => Request::Sync {
            session: SessionId(rng.gen_range(0..1000u64)),
        },
        4 => Request::Snapshot {
            session: SessionId(rng.gen_range(0..1000u64)),
        },
        5 => {
            let n = rng.gen_range(0..64usize);
            let mut snapshot = vec![0u8; n];
            for b in &mut snapshot {
                *b = rng.gen_range(0..=255u32) as u8;
            }
            Request::Restore { snapshot }
        }
        1 => {
            let n = rng.gen_range(0..32usize);
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let p = ProcId(rng.gen_range(0..64u16));
                let q = ResId(rng.gen_range(0..64u16));
                events.push(match rng.gen_range(0..5u32) {
                    0 => Event::Request { p, q },
                    1 => Event::Grant { q, p },
                    2 => Event::Release { q, p },
                    3 => Event::WouldDeadlock { p, q },
                    _ => Event::Probe,
                });
            }
            Request::Batch {
                session: SessionId(rng.gen_range(0..1000u64)),
                events,
            }
        }
        2 => Request::Close {
            session: SessionId(rng.gen_range(0..1000u64)),
        },
        _ => Request::Stats,
    }
}

fn sample_responses(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..16u32) {
        14 => Response::WalSegment {
            shard: rng.gen_range(0..16u16),
            epoch: rng.gen_range(0..u64::MAX),
            durable_seq: rng.gen_range(0..u64::MAX),
            last_seq: rng.gen_range(0..u64::MAX),
            records: (0..rng.gen_range(0..4usize))
                .map(|_| {
                    let n = rng.gen_range(0..32usize);
                    let mut bytes = vec![0u8; n];
                    for b in &mut bytes {
                        *b = rng.gen_range(0..=255u32) as u8;
                    }
                    (
                        rng.gen_range(0..u64::MAX),
                        rng.gen_range(0..u64::MAX),
                        bytes,
                    )
                })
                .collect(),
        },
        15 => Response::ReplicaStatus(ReplStatus {
            shard: rng.gen_range(0..16u16),
            primary: rng.gen_bool(0.5),
            epoch: rng.gen_range(0..u64::MAX),
            last_seq: rng.gen_range(0..u64::MAX),
            durable_seq: rng.gen_range(0..u64::MAX),
            acked_seq: rng.gen_range(0..u64::MAX),
            promotions: rng.gen_range(0..u64::MAX),
        }),
        0 => Response::Opened(SessionId(rng.gen_range(0..1000u64))),
        7 => Response::Granted {
            cycles: rng.gen_range(0..u64::MAX),
            probes: rng.gen_range(0..u32::MAX),
        },
        8 => Response::Deferred {
            cycles: rng.gen_range(0..u64::MAX),
            probes: rng.gen_range(0..u32::MAX),
        },
        9 => Response::GiveUp {
            ask: sample_give_up_ask(rng),
            cycles: rng.gen_range(0..u64::MAX),
            probes: rng.gen_range(0..u32::MAX),
        },
        10 => Response::Resolved {
            outcome: match rng.gen_range(0..4u32) {
                0 => ReleaseOutcome::NoWaiters,
                1 => ReleaseOutcome::GrantedTo {
                    process: ProcId(rng.gen_range(0..64u16)),
                    bypassed_gdl: (0..rng.gen_range(0..4usize))
                        .map(|_| ProcId(rng.gen_range(0..64u16)))
                        .collect(),
                },
                2 => ReleaseOutcome::Livelock { ask: None },
                _ => ReleaseOutcome::Livelock {
                    ask: Some(sample_give_up_ask(rng)),
                },
            },
            livelock_rounds: rng.gen_range(0..u64::MAX),
            cycles: rng.gen_range(0..u64::MAX),
            probes: rng.gen_range(0..u32::MAX),
        },
        11 => Response::Ack,
        13 => Response::Synced {
            durable_lsn: rng.gen_range(0..u64::MAX),
        },
        12 => Response::Rejected(match rng.gen_range(0..6u32) {
            0 => RejectReason::UnknownId,
            1 => RejectReason::DuplicateEdge,
            2 => RejectReason::ResourceBusy,
            3 => RejectReason::NotOwner,
            4 => RejectReason::RequestWhileHolding,
            _ => RejectReason::NoSuchEdge,
        }),
        6 => {
            let n = rng.gen_range(0..64usize);
            let mut blob = vec![0u8; n];
            for b in &mut blob {
                *b = rng.gen_range(0..=255u32) as u8;
            }
            Response::Snapshot(blob)
        }
        1 => {
            let n = rng.gen_range(0..32usize);
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(match rng.gen_range(0..3u32) {
                    0 => EventResult::Ack,
                    1 => EventResult::Outcome(DetectOutcome {
                        deadlock: rng.gen_bool(0.5),
                        iterations: rng.gen_range(0..100u32),
                        steps: rng.gen_range(0..100u32),
                    }),
                    _ => EventResult::Rejected(RejectReason::ResourceBusy),
                });
            }
            Response::Batch(results)
        }
        2 => Response::Closed,
        3 => Response::Busy,
        4 => Response::Stats {
            shards: vec![ShardStats {
                shard: rng.gen_range(0..16u16),
                events: rng.gen_range(0..u64::MAX),
                probes: rng.gen_range(0..u64::MAX),
                cache_hits: rng.gen_range(0..u64::MAX),
                dense_reductions: rng.gen_range(0..u64::MAX),
                sparse_reductions: rng.gen_range(0..u64::MAX),
                live_edges: rng.gen_range(0..u64::MAX),
                density_permille: rng.gen_range(0..u64::MAX),
                broker_grants: rng.gen_range(0..u64::MAX),
                broker_deferrals: rng.gen_range(0..u64::MAX),
                broker_give_ups: rng.gen_range(0..u64::MAX),
                broker_livelocks: rng.gen_range(0..u64::MAX),
                broker_waiters: rng.gen_range(0..u64::MAX),
                pipeline_fsyncs: rng.gen_range(0..u64::MAX),
                pipeline_batches: rng.gen_range(0..u64::MAX),
                pipeline_batch_max: rng.gen_range(0..u64::MAX),
                pipeline_withheld_peak: rng.gen_range(0..u64::MAX),
                pipeline_commit_p50_us: rng.gen_range(0..u64::MAX),
                pipeline_commit_p99_us: rng.gen_range(0..u64::MAX),
                repl_lag_records: rng.gen_range(0..u64::MAX),
                follower_acked_seq: rng.gen_range(0..u64::MAX),
                epoch: rng.gen_range(0..u64::MAX),
                promotions: rng.gen_range(0..u64::MAX),
            }],
            frontend: rng.gen_bool(0.5).then(|| FrontendStats {
                accepted: rng.gen_range(0..u64::MAX),
                active: rng.gen_range(0..u64::MAX),
                closed: rng.gen_range(0..u64::MAX),
                reaped_idle: rng.gen_range(0..u64::MAX),
                reaped_partial: rng.gen_range(0..u64::MAX),
                desynced: rng.gen_range(0..u64::MAX),
                frames_in: rng.gen_range(0..u64::MAX),
                replies_out: rng.gen_range(0..u64::MAX),
                busy_replies: rng.gen_range(0..u64::MAX),
                bytes_in: rng.gen_range(0..u64::MAX),
                bytes_out: rng.gen_range(0..u64::MAX),
            }),
            cores: (0..rng.gen_range(0..4usize))
                .map(|i| CoreStats {
                    core: i as u16,
                    conns: rng.gen_range(0..u64::MAX),
                    frames_in: rng.gen_range(0..u64::MAX),
                    replies_out: rng.gen_range(0..u64::MAX),
                    inline_ops: rng.gen_range(0..u64::MAX),
                    cross_core_forwards: rng.gen_range(0..u64::MAX),
                    migrations_in: rng.gen_range(0..u64::MAX),
                    wakeups: rng.gen_range(0..u64::MAX),
                    busy_poll_ticks: rng.gen_range(0..u64::MAX),
                })
                .collect(),
        },
        _ => Response::Error(ErrorCode::Shutdown),
    }
}

/// Random single-byte mutations of valid payloads: decoding must return
/// `Ok` (the mutation kept it valid) or a typed error — never panic.
#[test]
fn mutated_payloads_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x57A6);
    for _ in 0..2000 {
        let mut bytes = if rng.gen_bool(0.5) {
            encode_request(&sample_requests(&mut rng))
        } else {
            encode_response(&sample_responses(&mut rng))
        };
        for _ in 0..rng.gen_range(1..4u32) {
            if bytes.is_empty() {
                break;
            }
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..8u32);
        }
        // Both decoders over both kinds of (possibly cross-wired)
        // payloads; only the Result matters, not which arm.
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }
}

/// Every truncation of a valid payload decodes to a typed error (or Ok
/// for the rare mutation-free prefix that is itself a valid message).
#[test]
fn truncations_yield_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0x7A11);
    for _ in 0..200 {
        let req = sample_requests(&mut rng);
        let bytes = encode_request(&req);
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(WireError::Truncated) => {}
                // A prefix can decode if the cut lands exactly on a
                // smaller valid message (e.g. Batch count shrunk): that
                // is TrailingBytes territory, also typed.
                Err(WireError::TrailingBytes { .. }) | Err(WireError::UnknownTag { .. }) => {}
                Ok(_) => {}
                Err(e) => panic!("truncation at {cut} gave unexpected {e}"),
            }
        }
        let resp = sample_responses(&mut rng);
        let bytes = encode_response(&resp);
        for cut in 0..bytes.len() {
            let _ = decode_response(&bytes[..cut]);
        }
    }
}

/// Pure byte soup: arbitrary garbage through decoders and the frame
/// reader.
#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x6A5B);
    for _ in 0..2000 {
        let len = rng.gen_range(0..256usize);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.gen_range(0..=255u32) as u8;
        }
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let mut stream: &[u8] = &bytes;
        // Drain frames until the garbage runs out or errors.
        while let Ok(p) = read_frame(&mut stream) {
            let _ = decode_request(&p);
            if p.is_empty() && stream.is_empty() {
                break;
            }
        }
    }
}

/// Hostile length prefixes: the frame reader rejects oversized claims
/// before allocating, and truncated streams are typed.
#[test]
fn hostile_frame_prefixes_are_rejected() {
    // Claims 4 GiB - 1: must fail with Oversized without allocating.
    let huge = [0xFF, 0xFF, 0xFF, 0xFF];
    let mut stream: &[u8] = &huge;
    assert!(matches!(
        read_frame(&mut stream),
        Err(WireError::Oversized { len }) if len > MAX_FRAME as u64
    ));

    // Claims more bytes than the stream holds.
    let mut lying = Vec::new();
    lying.extend_from_slice(&100u32.to_le_bytes());
    lying.extend_from_slice(&[1, 2, 3]);
    let mut stream: &[u8] = &lying;
    assert!(matches!(read_frame(&mut stream), Err(WireError::Truncated)));

    // Prefix itself cut short.
    let mut stream: &[u8] = &[0x05, 0x00];
    assert!(matches!(read_frame(&mut stream), Err(WireError::Truncated)));

    // And the writer refuses to emit an unreadable frame.
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]),
        Err(WireError::Oversized { .. })
    ));
}

/// Round-trip sanity alongside the negative tests: a large corpus of
/// valid messages frames and decodes back to itself.
#[test]
fn valid_corpus_roundtrips_through_frames() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut wire = Vec::new();
    let mut requests = Vec::new();
    for _ in 0..500 {
        let req = sample_requests(&mut rng);
        write_frame(&mut wire, &encode_request(&req)).unwrap();
        requests.push(req);
    }
    let mut stream: &[u8] = &wire;
    for expected in &requests {
        let payload = read_frame(&mut stream).unwrap();
        assert_eq!(&decode_request(&payload).unwrap(), expected);
    }
    assert!(matches!(read_frame(&mut stream), Err(WireError::Closed)));
}

//! Property-based tests of the network wire codec and frame layer:
//! arbitrary `Request`/`Response` values roundtrip bit-exactly, truncated
//! or corrupted frames are rejected (never mis-decoded, never a panic),
//! and oversized frames are refused up front — plus a live-server check
//! that a connection turning hostile mid-stream ends deterministically.

use collusion_core::fault::FaultStats;
use collusion_core::model::DirectionEvidence;
use collusion_core::net::wire::{
    ConfirmVerdict, ErrorCode, PeerAddr, Request, Response, RoundReport, StatusInfo, WirePair,
};
use collusion_reputation::frame::{
    decode_frame, encode_frame, read_frame, FrameError, MAX_FRAME_PAYLOAD,
};
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingValue};
use proptest::prelude::*;

// ----- strategies ---------------------------------------------------------

fn rating() -> impl Strategy<Value = Rating> {
    (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(a, b, pos, t)| {
        let v = if pos { RatingValue::Positive } else { RatingValue::Negative };
        Rating::new(NodeId(a), NodeId(b), v, SimTime(t))
    })
}

fn evidence() -> impl Strategy<Value = DirectionEvidence> {
    (any::<u64>(), prop::option::of(0.0..=1.0f64), prop::option::of(0.0..=1.0f64), any::<i64>())
        .prop_map(|(n, a, b, r)| DirectionEvidence {
            pair_ratings: n,
            fraction_a: a,
            fraction_b: b,
            signed_reputation: r,
        })
}

fn wire_pair() -> impl Strategy<Value = WirePair> {
    (any::<u64>(), any::<u64>(), prop::option::of(evidence()), prop::option::of(evidence()))
        .prop_map(|(low, high, fwd, rev)| WirePair {
            low: NodeId(low),
            high: NodeId(high),
            low_boosts_high: fwd,
            high_boosts_low: rev,
        })
}

fn fault_stats() -> impl Strategy<Value = FaultStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(e, f, r, s, d, b, dl, de)| FaultStats {
            exchanges: e,
            failed_exchanges: f,
            retries: r,
            messages_sent: s,
            messages_dropped: d,
            backoff_ticks: b,
            delay_ticks: dl,
            deadline_exceeded: de,
        })
}

fn verdict() -> impl Strategy<Value = ConfirmVerdict> {
    (any::<bool>(), any::<bool>(), prop::option::of(evidence()))
        .prop_map(|(known, high_reputed, reverse)| ConfirmVerdict { known, high_reputed, reverse })
}

fn peer_addr() -> impl Strategy<Value = PeerAddr> {
    (any::<u64>(), any::<[u8; 4]>(), any::<u16>()).prop_map(|(m, ip, port)| PeerAddr {
        manager: NodeId(m),
        ip,
        port,
    })
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop::sample::select(vec![
        ErrorCode::Malformed,
        ErrorCode::NotFrozen,
        ErrorCode::BadRound,
        ErrorCode::Internal,
        ErrorCode::Overloaded,
    ])
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(|n| Request::Query(NodeId(n))),
        Just(Request::CloseEpoch),
        any::<u64>().prop_map(|round| Request::Freeze { round }),
        any::<u64>().prop_map(|round| Request::DetectRound { round }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(round, ratee, rater)| {
            Request::Confirm { round, ratee: NodeId(ratee), rater: NodeId(rater) }
        }),
        prop::collection::vec(peer_addr(), 0..8).prop_map(Request::SetPeers),
        Just(Request::Status),
        (any::<u64>(), any::<u64>(), prop::collection::vec(rating(), 0..20)).prop_map(
            |(session, stream_seq, ratings)| Request::InsertStream { session, stream_seq, ratings }
        ),
        any::<u64>().prop_map(|session| Request::StreamResume { session }),
        Just(Request::Heartbeat),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(seq, accepted)| Response::Ack { seq, accepted }),
        (any::<bool>(), any::<i64>(), any::<u64>()).prop_map(|(known, signed, view_version)| {
            Response::Reputation { known, signed, view_version }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(round, nodes)| Response::Frozen { round, nodes }),
        (
            any::<u64>(),
            prop::collection::vec(wire_pair(), 0..6),
            prop::collection::vec(wire_pair(), 0..6),
            fault_stats(),
        )
            .prop_map(|(round, confirmed, unconfirmed, fault)| {
                Response::Round(RoundReport { round, confirmed, unconfirmed, fault })
            }),
        verdict().prop_map(Response::Verdict),
        prop::collection::vec(any::<u64>(), 13..14).prop_map(|f| {
            Response::Status(StatusInfo {
                manager: NodeId(f[0]),
                recorded: f[1],
                wal_next_seq: f[2],
                round: f[3],
                view_version: f[4],
                durable_len: f[5],
                wal_len: f[6],
                intake_pending: f[7],
                stream_frames: f[8],
                stream_ratings: f[9],
                throttled_frames: f[10],
                refused_frames: f[11],
                sessions_resumed: f[12],
            })
        }),
        error_code().prop_map(|code| Response::Error { code }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(stream_seq, accepted, durable_len, throttle)| Response::InsertAck {
                stream_seq,
                accepted,
                durable_len,
                throttle,
            }
        ),
        any::<u64>().prop_map(|expected_seq| Response::StreamNack { expected_seq }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(manager, intake_pending, shedding)| Response::Beat {
                manager: NodeId(manager),
                intake_pending,
                shedding,
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(durable_seq, accepted)| Response::StreamState { durable_seq, accepted }),
    ]
}

// ----- properties ---------------------------------------------------------

proptest! {
    /// Every request decodes back to itself.
    #[test]
    fn request_roundtrips(req in request()) {
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).expect("decode"), req);
    }

    /// Every response decodes back to itself.
    #[test]
    fn response_roundtrips(resp in response()) {
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).expect("decode"), resp);
    }

    /// A framed payload survives the wire byte-exactly.
    #[test]
    fn frame_roundtrips(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let framed = encode_frame(&payload);
        let (decoded, used) = decode_frame(&framed, MAX_FRAME_PAYLOAD).expect("decode");
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(used, framed.len());
        let mut cursor = &framed[..];
        prop_assert_eq!(read_frame(&mut cursor, MAX_FRAME_PAYLOAD).expect("read"), payload);
    }

    /// Any strict prefix of a frame is rejected, never mis-read.
    #[test]
    fn truncated_frames_are_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        cut in any::<prop::sample::Index>(),
    ) {
        let framed = encode_frame(&payload);
        let cut = cut.index(framed.len()); // 0 ≤ cut < framed.len()
        let mut cursor = &framed[..cut];
        prop_assert!(read_frame(&mut cursor, MAX_FRAME_PAYLOAD).is_err());
    }

    /// Flipping any single byte of a frame makes it undecodable: the
    /// checksum (or the length sanity checks) must catch the corruption
    /// rather than hand back altered bytes.
    #[test]
    fn corrupted_frames_are_rejected(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut framed = encode_frame(&payload);
        let pos = pos.index(framed.len());
        framed[pos] ^= flip;
        // a shortened length prefix still fails: the checksum no longer
        // matches the shifted payload window
        if let Ok((decoded, _)) = decode_frame(&framed, MAX_FRAME_PAYLOAD) {
            prop_assert_eq!(decoded, &payload[..], "corruption slipped through decode_frame");
        }
        let mut cursor = &framed[..];
        if let Ok(got) = read_frame(&mut cursor, MAX_FRAME_PAYLOAD) {
            prop_assert_eq!(got, payload, "corruption slipped through read_frame");
        }
    }

    /// Arbitrary bytes never panic the payload codecs (they error instead).
    #[test]
    fn random_bytes_never_panic_the_codec(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = decode_frame(&bytes, MAX_FRAME_PAYLOAD);
    }

    /// A frame whose declared payload exceeds the reader's ceiling is
    /// refused before any payload is read.
    #[test]
    fn oversized_frames_are_refused(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        max in 0u32..128,
    ) {
        prop_assume!(payload.len() as u32 > max);
        let framed = encode_frame(&payload);
        let mut cursor = &framed[..];
        prop_assert!(matches!(
            read_frame(&mut cursor, max),
            Err(FrameError::Oversized { .. })
        ));
    }
}

// ----- live-server robustness ---------------------------------------------

/// A connection that goes hostile mid-stream — corrupt checksum, oversized
/// length prefix, or raw garbage after valid traffic — must end
/// deterministically: the server closes that connection (never panics,
/// never wedges the thread) and keeps serving fresh connections.
#[test]
fn malformed_mid_stream_closes_the_connection_and_spares_the_server() {
    use collusion_core::decentralized::Method;
    use collusion_core::durability::{scratch_dir, DurabilityConfig};
    use collusion_core::net::client::RpcConfig;
    use collusion_core::net::server::{ManagerConfig, ManagerNode};
    use collusion_core::policy::DetectionPolicy;
    use collusion_reputation::frame::write_frame;
    use collusion_reputation::thresholds::Thresholds;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let dir = scratch_dir("net-hostile");
    let node = ManagerNode::spawn(ManagerConfig {
        id: NodeId(1000),
        dir: dir.join("m1000"),
        nodes: (1..10).map(NodeId).collect(),
        managers: vec![NodeId(1000)],
        replication: 1,
        thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
        method: Method::Optimized,
        policy: DetectionPolicy::STRICT,
        shards: 2,
        durability: DurabilityConfig::default(),
        rpc: RpcConfig::lan(),
        backpressure: collusion_core::net::Backpressure::default(),
    })
    .expect("spawn manager");
    let addr = node.addr();

    let heartbeat = |s: &mut TcpStream| {
        write_frame(s, &Request::Heartbeat.encode()).expect("write heartbeat");
        let payload = read_frame(s, MAX_FRAME_PAYLOAD).expect("read beat");
        assert!(matches!(Response::decode(&payload), Ok(Response::Beat { .. })));
    };

    // three ways a stream can desynchronize after perfectly valid traffic
    let corrupt = {
        let mut f = encode_frame(&Request::Heartbeat.encode());
        let last = f.len() - 1;
        f[last] ^= 0xFF; // checksum mismatch on a full frame
        f
    };
    let oversized = (MAX_FRAME_PAYLOAD + 1).to_le_bytes()[..4]
        .iter()
        .copied()
        .chain([0u8; 8])
        .collect::<Vec<u8>>();
    let garbage = vec![0xA5u8; 64]; // mid-frame noise after a stream frame
    for (tag, hostile) in [("corrupt", corrupt), ("oversized", oversized), ("garbage", garbage)] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).ok();
        heartbeat(&mut s);
        // a valid stream frame first: the hostile bytes arrive mid-session
        let frame = Request::InsertStream {
            session: 0,
            stream_seq: 1,
            ratings: vec![Rating::new(NodeId(2), NodeId(3), RatingValue::Positive, SimTime(1))],
        };
        write_frame(&mut s, &frame.encode()).expect("write stream frame");
        s.write_all(&hostile).expect("write hostile bytes");
        // deterministic outcome: the connection reaches EOF (the ack for
        // frame 1 may arrive first; nothing else may)
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut rest = Vec::new();
        match s.read_to_end(&mut rest) {
            Ok(_) => {
                // any bytes before the close must be well-formed responses
                let mut cursor = &rest[..];
                while !cursor.is_empty() {
                    let payload = read_frame(&mut cursor, MAX_FRAME_PAYLOAD)
                        .unwrap_or_else(|e| panic!("{tag}: partial response before close: {e}"));
                    let resp = Response::decode(&payload)
                        .unwrap_or_else(|e| panic!("{tag}: undecodable response: {e:?}"));
                    assert!(
                        matches!(resp, Response::InsertAck { .. } | Response::Error { .. }),
                        "{tag}: unexpected response before close: {resp:?}"
                    );
                }
            }
            // closing with undrained hostile bytes in the receive buffer
            // surfaces as RST rather than FIN — still a deterministic end
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("{tag}: connection must end deterministically, got {e}"),
        }
        // the server must keep serving fresh connections afterwards
        let mut fresh = TcpStream::connect(addr).expect("reconnect");
        fresh.set_nodelay(true).ok();
        heartbeat(&mut fresh);
    }

    drop(node);
    std::fs::remove_dir_all(&dir).ok();
}

// ----- exactly-once stream resume ------------------------------------------

mod resume_props {
    use super::*;
    use collusion_core::decentralized::Method;
    use collusion_core::durability::{scratch_dir, DurabilityConfig};
    use collusion_core::net::client::RpcConfig;
    use collusion_core::net::server::{ManagerConfig, ManagerNode};
    use collusion_core::net::Backpressure;
    use collusion_core::policy::DetectionPolicy;
    use collusion_reputation::frame::write_frame;
    use collusion_reputation::thresholds::Thresholds;
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    fn spawn_manager(dir: &std::path::Path) -> ManagerNode {
        ManagerNode::spawn(ManagerConfig {
            id: NodeId(2000),
            dir: dir.join("m2000"),
            nodes: (1..=12).map(NodeId).collect(),
            managers: vec![NodeId(2000)],
            replication: 1,
            thresholds: Thresholds::new(1.0, 10, 0.8, 0.2),
            method: Method::Optimized,
            policy: DetectionPolicy::STRICT,
            shards: 2,
            durability: DurabilityConfig::default(),
            rpc: RpcConfig::lan(),
            backpressure: Backpressure::default(),
        })
        .expect("spawn manager")
    }

    /// Deterministic workload: a biased rating mix over 12 nodes, heavy
    /// enough that the detection round has pairs to judge.
    fn workload(seed: u64, n: usize) -> Vec<Rating> {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n as u64)
            .map(|t| {
                let rater = NodeId(1 + step() % 12);
                let mut ratee = NodeId(1 + step() % 12);
                if ratee == rater {
                    ratee = NodeId(1 + (ratee.raw() % 12));
                }
                // colluding bias: low ids rate each other positive
                let v = if rater.raw() <= 3 && ratee.raw() <= 3 {
                    RatingValue::Positive
                } else if step() % 3 == 0 {
                    RatingValue::Negative
                } else {
                    RatingValue::Positive
                };
                Rating::new(rater, ratee, v, SimTime(t + 1))
            })
            .collect()
    }

    fn connect(node: &ManagerNode) -> TcpStream {
        let s = TcpStream::connect(node.addr()).expect("connect");
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        s
    }

    /// Send frames `from..=frames.len()` then a flush barrier, and read
    /// cumulative acks until the last frame is acked durable.
    fn stream_frames(s: &mut TcpStream, session: u64, frames: &[Vec<Rating>], from: u64) {
        let total = frames.len() as u64;
        for (i, chunk) in frames.iter().enumerate().skip(from as usize) {
            let req = Request::encode_insert_stream(session, i as u64 + 1, chunk);
            write_frame(s, &req).expect("write stream frame");
        }
        write_frame(s, &Request::StreamFlush.encode()).expect("write flush");
        let mut acked = from;
        while acked < total {
            let payload = read_frame(s, MAX_FRAME_PAYLOAD).expect("read ack");
            match Response::decode(&payload).expect("decode ack") {
                Response::InsertAck { stream_seq, .. } => acked = acked.max(stream_seq),
                other => panic!("unexpected stream response: {other:?}"),
            }
        }
    }

    /// `StreamResume` handshake: returns the server's durable watermark.
    fn resume(s: &mut TcpStream, session: u64) -> u64 {
        write_frame(s, &Request::StreamResume { session }.encode()).expect("write resume");
        let payload = read_frame(s, MAX_FRAME_PAYLOAD).expect("read resume state");
        match Response::decode(&payload).expect("decode resume state") {
            Response::StreamState { durable_seq, .. } => durable_seq,
            other => panic!("unexpected resume response: {other:?}"),
        }
    }

    /// Freeze + one detection round; returns the confirmed suspect pairs.
    fn suspect_pairs(s: &mut TcpStream) -> Vec<(u64, u64)> {
        write_frame(s, &Request::Freeze { round: 1 }.encode()).expect("freeze");
        let payload = read_frame(s, MAX_FRAME_PAYLOAD).expect("frozen");
        assert!(matches!(Response::decode(&payload), Ok(Response::Frozen { .. })));
        s.set_read_timeout(Some(Duration::from_secs(60))).ok();
        write_frame(s, &Request::DetectRound { round: 1 }.encode()).expect("detect");
        let payload = read_frame(s, MAX_FRAME_PAYLOAD).expect("round");
        let Ok(Response::Round(report)) = Response::decode(&payload) else {
            panic!("DetectRound must answer Round")
        };
        report.confirmed.iter().map(|p| (p.low.raw(), p.high.raw())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Killing the TCP connection at a random frame boundary and
        /// resuming from the durable watermark converges to the exact
        /// state of an unfaulted run: byte-identical WAL, equal suspect
        /// set. The resume handshake pins the retransmit point, so no
        /// acked rating is lost and no frame is applied twice.
        #[test]
        fn killed_and_resumed_stream_matches_the_unfaulted_run(
            seed in 1u64..=u64::MAX,
            kill_at_frac in 0.0..1.0f64,
        ) {
            let ratings = workload(seed, 240);
            let frames: Vec<Vec<Rating>> = ratings.chunks(16).map(<[Rating]>::to_vec).collect();
            let session = 0x5E55_0000 | (seed & 0xFFFF);

            // unfaulted baseline: one connection streams everything
            let base_dir = scratch_dir("resume-base");
            let baseline = spawn_manager(&base_dir);
            let mut s = connect(&baseline);
            stream_frames(&mut s, session, &frames, 0);
            let base_pairs = suspect_pairs(&mut s);
            drop(s);
            baseline.kill().expect("kill baseline");

            // faulted run: same frames, connection killed mid-stream
            let kill_at = (frames.len() as f64 * kill_at_frac) as u64; // 0 ≤ kill_at ≤ frames
            let fault_dir = scratch_dir("resume-fault");
            let faulted = spawn_manager(&fault_dir);
            let mut first = connect(&faulted);
            for (i, chunk) in frames.iter().take(kill_at as usize).enumerate() {
                let req = Request::encode_insert_stream(session, i as u64 + 1, chunk);
                write_frame(&mut first, &req).expect("write pre-kill frame");
            }
            first.shutdown(Shutdown::Both).ok(); // the kill: no flush, no acks read
            drop(first);
            // let the server drain the dead connection's buffered frames —
            // a resume racing them would be answered from a stale watermark
            // and the retransmissions nacked as duplicates (the library
            // client heals that by re-resuming; this manual driver doesn't)
            std::thread::sleep(Duration::from_millis(200));

            let mut second = connect(&faulted);
            let durable = resume(&mut second, session);
            prop_assert!(durable <= kill_at, "server acked frames never sent");
            stream_frames(&mut second, session, &frames, durable);
            let fault_pairs = suspect_pairs(&mut second);
            drop(second);
            faulted.kill().expect("kill faulted");

            prop_assert_eq!(&base_pairs, &fault_pairs, "suspect sets diverged after resume");
            let base_wal =
                std::fs::read(base_dir.join("m2000").join("engine.wal")).expect("baseline wal");
            let fault_wal =
                std::fs::read(fault_dir.join("m2000").join("engine.wal")).expect("faulted wal");
            prop_assert_eq!(
                base_wal, fault_wal,
                "resumed WAL must be byte-identical to the unfaulted WAL"
            );
            std::fs::remove_dir_all(&base_dir).ok();
            std::fs::remove_dir_all(&fault_dir).ok();
        }
    }
}

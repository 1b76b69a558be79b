//! RPC message types and their panic-free binary codec.
//!
//! Every message travels as one checksummed frame
//! ([`collusion_reputation::frame`]); this module defines what goes *inside*
//! the frame: a one-byte protocol version, a one-byte tag, and the
//! little-endian fields of the variant, encoded with the same
//! [`ByteWriter`]/[`ByteReader`] primitives the WAL and checkpoints use.
//!
//! Decoding never panics and never trusts a length field: collection counts
//! are validated against the bytes actually present
//! ([`ByteReader::checked_count`]), so corrupt or hostile payloads surface
//! as [`CodecError`]s instead of allocation bombs — the proptests in
//! `tests/net_wire_props.rs` hold every variant to a byte-exact round trip
//! and every decoder to the no-panic contract.

pub use crate::decentralized::ConfirmVerdict;
use crate::fault::FaultStats;
use crate::model::{DirectionEvidence, SuspectPair};
use collusion_reputation::codec::{ByteReader, ByteWriter, CodecError};
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingValue};

/// Wire protocol version; bumped on any incompatible layout change.
/// Version 3: resumable stream sessions (`session` on `InsertStream`,
/// `StreamResume`/`StreamState`), explicit `StreamNack`, heartbeat probes
/// (`Heartbeat`/`Beat`), backpressure (`throttle` on `InsertAck`,
/// `ErrorCode::Overloaded`), and the [`StatusInfo`] overload counters.
/// Version 4: the replica push (request tag 3) is retired and
/// [`StatusInfo`] no longer carries a replica count.
pub const PROTOCOL_VERSION: u8 = 4;

/// A manager's advertised address (the cluster runs over IPv4 loopback; the
/// codec carries the four octets and the port explicitly rather than a
/// parsed string).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerAddr {
    /// The manager this address belongs to.
    pub manager: NodeId,
    /// IPv4 octets.
    pub ip: [u8; 4],
    /// TCP port.
    pub port: u16,
}

impl PeerAddr {
    /// As a `SocketAddr` for `TcpStream::connect`.
    pub fn socket_addr(&self) -> std::net::SocketAddr {
        std::net::SocketAddr::from((self.ip, self.port))
    }
}

/// Why a server refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded or carried an unknown version, or
    /// an `InsertStream` frame named a ratee the receiving manager does not
    /// own. Such a frame is refused whole: none of its ratings is applied
    /// and the stream sequence is not advanced.
    Malformed,
    /// A detection RPC arrived before `Freeze` for that round.
    NotFrozen,
    /// The round number does not match the frozen round.
    BadRound,
    /// An internal invariant failed; the connection stays usable.
    Internal,
    /// The manager's intake is past its hard limit; the frame was *not*
    /// applied and the stream sequence was not advanced. Retryable: back
    /// off and retransmit the same frame.
    Overloaded,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::NotFrozen => 2,
            ErrorCode::BadRound => 3,
            ErrorCode::Internal => 5,
            ErrorCode::Overloaded => 6,
        }
    }

    fn from_tag(t: u8) -> Result<Self, CodecError> {
        Ok(match t {
            0 => ErrorCode::Malformed,
            2 => ErrorCode::NotFrozen,
            3 => ErrorCode::BadRound,
            5 => ErrorCode::Internal,
            6 => ErrorCode::Overloaded,
            other => return Err(CodecError::InvalidTag(other)),
        })
    }
}

/// A suspect pair on the wire: the same shape as [`SuspectPair`] but
/// decodable from untrusted bytes without the constructor's invariants
/// (which panic on empty evidence — a *local* programming error, not a
/// wire-data error).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirePair {
    /// Smaller node id of the pair.
    pub low: NodeId,
    /// Larger node id of the pair.
    pub high: NodeId,
    /// Evidence that `low` boosts `high`, if found.
    pub low_boosts_high: Option<DirectionEvidence>,
    /// Evidence that `high` boosts `low`, if found.
    pub high_boosts_low: Option<DirectionEvidence>,
}

impl WirePair {
    /// The normalized id pair.
    pub fn ids(&self) -> (NodeId, NodeId) {
        (self.low, self.high)
    }
}

impl From<&SuspectPair> for WirePair {
    fn from(p: &SuspectPair) -> Self {
        WirePair {
            low: p.low,
            high: p.high,
            low_boosts_high: p.low_boosts_high,
            high_boosts_low: p.high_boosts_low,
        }
    }
}

/// One manager's detection-round result (its own forward walk plus the
/// confirmations it initiated).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundReport {
    /// The round this report belongs to.
    pub round: u64,
    /// Mutually confirmed suspect pairs.
    pub confirmed: Vec<WirePair>,
    /// Degraded pairs: forward evidence found, cross-manager confirmation
    /// unreachable within its deadline. Reported, never dropped.
    pub unconfirmed: Vec<WirePair>,
    /// Per-RPC accounting of the confirmations this manager initiated.
    pub fault: FaultStats,
}

/// Server introspection snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatusInfo {
    /// Manager id.
    pub manager: NodeId,
    /// Ratings folded into the primary slice and absorbed into the read
    /// view — self-ratings are logged but never folded, so never counted;
    /// stream ratings not absorbed yet are `intake_pending`. Means the
    /// same before and after a rejoin.
    pub recorded: u64,
    /// Next WAL sequence number.
    pub wal_next_seq: u64,
    /// Currently frozen round (0 = none).
    pub round: u64,
    /// Epoch of the published read view (the `view_version` a `Query`
    /// answered now would carry).
    pub view_version: u64,
    /// WAL durable watermark in bytes (everything at or below this offset
    /// survives a crash; stream acks are only sent at-or-behind it).
    pub durable_len: u64,
    /// WAL logical length in bytes (`durable_len ≤ wal_len`; the gap is
    /// the un-fsynced backlog).
    pub wal_len: u64,
    /// Stream ratings logged but not yet absorbed into the read view (the
    /// data-plane queue depth).
    pub intake_pending: u64,
    /// Stream frames accepted over all connections so far.
    pub stream_frames: u64,
    /// Ratings accepted via stream frames so far.
    pub stream_ratings: u64,
    /// Stream frames accepted past the intake high-watermark: applied, but
    /// the ack carried a `throttle` hint stalling the sender's window.
    pub throttled_frames: u64,
    /// Stream frames refused outright past the intake hard limit
    /// ([`ErrorCode::Overloaded`]; the sender retries the same frame).
    pub refused_frames: u64,
    /// `StreamResume` requests answered from the durable session table.
    pub sessions_resumed: u64,
}

/// Client → server RPCs. [`Request::InsertStream`] is the paper's
/// `Insert(j, msg)` primitive — store ratings at the manager responsible
/// for ratee `j`. Retired tags are never reused and decode to
/// [`CodecError::InvalidTag`]: 0 (a liveness probe; [`Request::Heartbeat`]
/// is the probe), 1 and 2 (the one-ack request/response inserts), 3 (a
/// replica push; each node's ratings live at its owner alone) and 9 (a
/// fetch of the last round's verdicts; [`Response::Round`] carries them).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Read a node's published signed reputation (lock-free view path).
    Query(NodeId),
    /// Close the engine epoch: run detection on the durable engine and
    /// publish a fresh read view.
    CloseEpoch,
    /// Freeze this manager's slice into the detection snapshot for `round`.
    Freeze {
        /// Round number (monotone per harness run).
        round: u64,
    },
    /// Run the local forward walk of `round`, confirming cross-manager
    /// pairs at the partner's owner with deadlines and retries.
    DetectRound {
        /// Round number; must match the frozen round.
        round: u64,
    },
    /// Partner-side confirmation probe: is `ratee` high-reputed on your
    /// slice, and does it boost `rater` back?
    Confirm {
        /// Round number; must match the frozen round.
        round: u64,
        /// The node whose reverse direction is probed (owned by the
        /// receiving manager).
        ratee: NodeId,
        /// The probing high-reputed partner.
        rater: NodeId,
    },
    /// Replace the peer address map (sent at cluster start and after a
    /// rejoined manager comes back on a new port).
    SetPeers(Vec<PeerAddr>),
    /// Introspection, answered for a settled durable layer: a checkpoint
    /// still being written lands first.
    Status,
    /// One frame of a windowed insert stream: the client keeps several of
    /// these in flight and the server acknowledges cumulatively with
    /// [`Response::InsertAck`] once the covering WAL bytes are durable.
    /// `stream_seq` numbers the frames of one *session*, starting at 1; a
    /// non-zero client-chosen `session` id makes the stream resumable
    /// across connections (the server persists the per-session durable
    /// watermark in its WAL), while `session == 0` keeps the old
    /// per-connection semantics.
    InsertStream {
        /// Client-chosen 64-bit session id (0 = anonymous, not resumable).
        session: u64,
        /// 1-based frame number within this session's stream.
        stream_seq: u64,
        /// The frame's rating batch.
        ratings: Vec<Rating>,
    },
    /// Explicit stream-ack barrier: the client wants every
    /// [`Request::InsertStream`] frame sent so far acknowledged, so the
    /// server must drive its WAL durable watermark over them now. Sent
    /// when a stream drains its window (blocked on acks) and at session
    /// close — never mid-burst, so the server fsyncs exactly when an ack
    /// is needed instead of on every gap in socket traffic.
    StreamFlush,
    /// Reopen a resumable stream session after a reconnect (to the primary
    /// or a failover incarnation). The server syncs its WAL, then answers
    /// [`Response::StreamState`] with the durable watermark so the client
    /// retransmits only unacked frames.
    StreamResume {
        /// The session id chosen at stream open.
        session: u64,
    },
    /// Lightweight liveness/health probe answered lock-free with
    /// [`Response::Beat`]; used by the failure detector between data
    /// frames.
    Heartbeat,
}

/// Server → client replies. Tags 0 and 6 (the replies to the retired
/// request tags 0 and 9) are never reused, and neither are error codes 1
/// and 4, which no server path produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// An epoch close or a peer update accepted.
    Ack {
        /// Next WAL sequence after the append (0 for non-durable acks).
        seq: u64,
        /// Ratings accepted from the request.
        accepted: u64,
    },
    /// Reply to [`Request::Query`].
    Reputation {
        /// Whether the node exists in the published view.
        known: bool,
        /// Signed reputation sum (0 when unknown).
        signed: i64,
        /// View version the answer was read from.
        view_version: u64,
    },
    /// Reply to [`Request::Freeze`].
    Frozen {
        /// The frozen round.
        round: u64,
        /// Responsible nodes in the frozen snapshot.
        nodes: u64,
    },
    /// Reply to [`Request::DetectRound`].
    Round(RoundReport),
    /// Reply to [`Request::Confirm`].
    Verdict(ConfirmVerdict),
    /// Reply to [`Request::Status`].
    Status(StatusInfo),
    /// The request was understood but refused.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
    },
    /// Cumulative stream acknowledgement: every [`Request::InsertStream`]
    /// frame with `stream_seq ≤ this.stream_seq` is fully appended to the
    /// WAL **and** covered by the durable watermark — acked means it
    /// survives a kill and WAL replay, not merely that it was received.
    InsertAck {
        /// Highest durably-covered frame number (cumulative).
        stream_seq: u64,
        /// Total ratings accepted across all acked frames (cumulative).
        /// Self-ratings count: the WAL logs them, though no counter folds
        /// them.
        accepted: u64,
        /// The WAL durable watermark (bytes) backing this ack.
        durable_len: u64,
        /// Backpressure hint: the server's intake is past its
        /// high-watermark; the client should stall its send window until
        /// a non-throttled ack arrives.
        throttle: bool,
    },
    /// The stream frame was *not* applied: its `stream_seq` does not match
    /// the sequence the server expects next for the session. A seq behind
    /// the expectation is a duplicate (already durable — safe to skip); a
    /// seq ahead of it is a protocol bug or transport loss the client must
    /// handle by resuming from `expected_seq`.
    StreamNack {
        /// The frame number the server will accept next.
        expected_seq: u64,
    },
    /// Reply to [`Request::Heartbeat`]: liveness plus a coarse health
    /// sample for the failure detector.
    Beat {
        /// Responding manager.
        manager: NodeId,
        /// Current intake queue depth (ratings logged but not absorbed).
        intake_pending: u64,
        /// Whether the manager is currently refusing frames (past its
        /// hard intake limit).
        shedding: bool,
    },
    /// Reply to [`Request::StreamResume`]: the durable watermark of the
    /// session, taken after a WAL sync barrier so it is exact.
    StreamState {
        /// Highest frame number durably applied for the session (0 = the
        /// session is unknown; start from frame 1).
        durable_seq: u64,
        /// Cumulative ratings accepted through `durable_seq`.
        accepted: u64,
    },
}

// ----- field codecs ------------------------------------------------------

fn put_rating(w: &mut ByteWriter, r: &Rating) {
    w.put_u64(r.rater.0);
    w.put_u64(r.ratee.0);
    w.put_u8(match r.value {
        RatingValue::Negative => 0,
        RatingValue::Neutral => 1,
        RatingValue::Positive => 2,
    });
    w.put_u64(r.time.0);
}

fn get_rating(r: &mut ByteReader<'_>) -> Result<Rating, CodecError> {
    let rater = NodeId(r.get_u64()?);
    let ratee = NodeId(r.get_u64()?);
    let value = match r.get_u8()? {
        0 => RatingValue::Negative,
        1 => RatingValue::Neutral,
        2 => RatingValue::Positive,
        other => return Err(CodecError::InvalidTag(other)),
    };
    let time = SimTime(r.get_u64()?);
    Ok(Rating { rater, ratee, value, time })
}

/// Bytes of one encoded rating (two ids, tag, time).
const RATING_BYTES: usize = 8 + 8 + 1 + 8;

fn put_ratings(w: &mut ByteWriter, ratings: &[Rating]) {
    w.put_u64(ratings.len() as u64);
    for r in ratings {
        put_rating(w, r);
    }
}

fn get_ratings(r: &mut ByteReader<'_>) -> Result<Vec<Rating>, CodecError> {
    let count = r.get_u64()?;
    let count = r.checked_count(count, RATING_BYTES)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(get_rating(r)?);
    }
    Ok(out)
}

fn put_opt_f64(w: &mut ByteWriter, v: Option<f64>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_f64(x);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_f64(r: &mut ByteReader<'_>) -> Result<Option<f64>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_f64()?)),
        other => Err(CodecError::InvalidTag(other)),
    }
}

fn put_evidence(w: &mut ByteWriter, e: &DirectionEvidence) {
    w.put_u64(e.pair_ratings);
    put_opt_f64(w, e.fraction_a);
    put_opt_f64(w, e.fraction_b);
    w.put_i64(e.signed_reputation);
}

fn get_evidence(r: &mut ByteReader<'_>) -> Result<DirectionEvidence, CodecError> {
    Ok(DirectionEvidence {
        pair_ratings: r.get_u64()?,
        fraction_a: get_opt_f64(r)?,
        fraction_b: get_opt_f64(r)?,
        signed_reputation: r.get_i64()?,
    })
}

fn put_opt_evidence(w: &mut ByteWriter, e: &Option<DirectionEvidence>) {
    match e {
        Some(ev) => {
            w.put_u8(1);
            put_evidence(w, ev);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_evidence(r: &mut ByteReader<'_>) -> Result<Option<DirectionEvidence>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_evidence(r)?)),
        other => Err(CodecError::InvalidTag(other)),
    }
}

fn put_pair(w: &mut ByteWriter, p: &WirePair) {
    w.put_u64(p.low.0);
    w.put_u64(p.high.0);
    put_opt_evidence(w, &p.low_boosts_high);
    put_opt_evidence(w, &p.high_boosts_low);
}

fn get_pair(r: &mut ByteReader<'_>) -> Result<WirePair, CodecError> {
    Ok(WirePair {
        low: NodeId(r.get_u64()?),
        high: NodeId(r.get_u64()?),
        low_boosts_high: get_opt_evidence(r)?,
        high_boosts_low: get_opt_evidence(r)?,
    })
}

/// Minimum bytes of one encoded pair (both evidence slots absent).
const PAIR_MIN_BYTES: usize = 8 + 8 + 1 + 1;

fn put_pairs(w: &mut ByteWriter, pairs: &[WirePair]) {
    w.put_u64(pairs.len() as u64);
    for p in pairs {
        put_pair(w, p);
    }
}

fn get_pairs(r: &mut ByteReader<'_>) -> Result<Vec<WirePair>, CodecError> {
    let count = r.get_u64()?;
    let count = r.checked_count(count, PAIR_MIN_BYTES)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(get_pair(r)?);
    }
    Ok(out)
}

fn put_fault_stats(w: &mut ByteWriter, s: &FaultStats) {
    w.put_u64(s.exchanges);
    w.put_u64(s.failed_exchanges);
    w.put_u64(s.retries);
    w.put_u64(s.messages_sent);
    w.put_u64(s.messages_dropped);
    w.put_u64(s.backoff_ticks);
    w.put_u64(s.delay_ticks);
    w.put_u64(s.deadline_exceeded);
}

fn get_fault_stats(r: &mut ByteReader<'_>) -> Result<FaultStats, CodecError> {
    Ok(FaultStats {
        exchanges: r.get_u64()?,
        failed_exchanges: r.get_u64()?,
        retries: r.get_u64()?,
        messages_sent: r.get_u64()?,
        messages_dropped: r.get_u64()?,
        backoff_ticks: r.get_u64()?,
        delay_ticks: r.get_u64()?,
        deadline_exceeded: r.get_u64()?,
    })
}

fn header(w: &mut ByteWriter, tag: u8) {
    w.put_u8(PROTOCOL_VERSION);
    w.put_u8(tag);
}

fn read_header(r: &mut ByteReader<'_>) -> Result<u8, CodecError> {
    let version = r.get_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(CodecError::BadMagic);
    }
    r.get_u8()
}

// ----- Request codec -----------------------------------------------------

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Query(n) => {
                header(&mut w, 4);
                w.put_u64(n.0);
            }
            Request::CloseEpoch => header(&mut w, 5),
            Request::Freeze { round } => {
                header(&mut w, 6);
                w.put_u64(*round);
            }
            Request::DetectRound { round } => {
                header(&mut w, 7);
                w.put_u64(*round);
            }
            Request::Confirm { round, ratee, rater } => {
                header(&mut w, 8);
                w.put_u64(*round);
                w.put_u64(ratee.0);
                w.put_u64(rater.0);
            }
            Request::SetPeers(peers) => {
                header(&mut w, 10);
                w.put_u64(peers.len() as u64);
                for p in peers {
                    w.put_u64(p.manager.0);
                    w.put_bytes(&p.ip);
                    w.put_u8((p.port >> 8) as u8);
                    w.put_u8(p.port as u8);
                }
            }
            Request::Status => header(&mut w, 11),
            Request::InsertStream { session, stream_seq, ratings } => {
                header(&mut w, 12);
                w.put_u64(*session);
                w.put_u64(*stream_seq);
                put_ratings(&mut w, ratings);
            }
            Request::StreamFlush => header(&mut w, 13),
            Request::StreamResume { session } => {
                header(&mut w, 14);
                w.put_u64(*session);
            }
            Request::Heartbeat => header(&mut w, 15),
        }
        w.into_bytes()
    }

    /// Encode an `InsertStream` frame payload straight from a rating slice,
    /// without materialising the owned `Request` variant (the hot stream
    /// path would otherwise clone every batch into a `Vec` just to encode
    /// and drop it). Byte-identical to
    /// `Request::InsertStream { session, stream_seq, ratings: ratings.to_vec() }.encode()`.
    pub fn encode_insert_stream(session: u64, stream_seq: u64, ratings: &[Rating]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        header(&mut w, 12);
        w.put_u64(session);
        w.put_u64(stream_seq);
        put_ratings(&mut w, ratings);
        w.into_bytes()
    }

    /// Decode from a frame payload. Never panics; never trusts a count.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let req = match read_header(&mut r)? {
            4 => Request::Query(NodeId(r.get_u64()?)),
            5 => Request::CloseEpoch,
            6 => Request::Freeze { round: r.get_u64()? },
            7 => Request::DetectRound { round: r.get_u64()? },
            8 => Request::Confirm {
                round: r.get_u64()?,
                ratee: NodeId(r.get_u64()?),
                rater: NodeId(r.get_u64()?),
            },
            10 => {
                let count = r.get_u64()?;
                let count = r.checked_count(count, 8 + 4 + 2)?;
                let mut peers = Vec::with_capacity(count);
                for _ in 0..count {
                    let manager = NodeId(r.get_u64()?);
                    let ip = r.get_bytes(4)?;
                    let hi = r.get_u8()?;
                    let lo = r.get_u8()?;
                    peers.push(PeerAddr {
                        manager,
                        ip: [ip[0], ip[1], ip[2], ip[3]],
                        port: (u16::from(hi) << 8) | u16::from(lo),
                    });
                }
                Request::SetPeers(peers)
            }
            11 => Request::Status,
            12 => Request::InsertStream {
                session: r.get_u64()?,
                stream_seq: r.get_u64()?,
                ratings: get_ratings(&mut r)?,
            },
            13 => Request::StreamFlush,
            14 => Request::StreamResume { session: r.get_u64()? },
            15 => Request::Heartbeat,
            other => return Err(CodecError::InvalidTag(other)),
        };
        if !r.is_exhausted() {
            return Err(CodecError::BadLength);
        }
        Ok(req)
    }
}

// ----- Response codec ----------------------------------------------------

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Ack { seq, accepted } => {
                header(&mut w, 1);
                w.put_u64(*seq);
                w.put_u64(*accepted);
            }
            Response::Reputation { known, signed, view_version } => {
                header(&mut w, 2);
                w.put_u8(u8::from(*known));
                w.put_i64(*signed);
                w.put_u64(*view_version);
            }
            Response::Frozen { round, nodes } => {
                header(&mut w, 3);
                w.put_u64(*round);
                w.put_u64(*nodes);
            }
            Response::Round(report) => {
                header(&mut w, 4);
                w.put_u64(report.round);
                put_pairs(&mut w, &report.confirmed);
                put_pairs(&mut w, &report.unconfirmed);
                put_fault_stats(&mut w, &report.fault);
            }
            Response::Verdict(v) => {
                header(&mut w, 5);
                w.put_u8(u8::from(v.known));
                w.put_u8(u8::from(v.high_reputed));
                put_opt_evidence(&mut w, &v.reverse);
            }
            Response::Status(s) => {
                header(&mut w, 7);
                w.put_u64(s.manager.0);
                w.put_u64(s.recorded);
                w.put_u64(s.wal_next_seq);
                w.put_u64(s.round);
                w.put_u64(s.view_version);
                w.put_u64(s.durable_len);
                w.put_u64(s.wal_len);
                w.put_u64(s.intake_pending);
                w.put_u64(s.stream_frames);
                w.put_u64(s.stream_ratings);
                w.put_u64(s.throttled_frames);
                w.put_u64(s.refused_frames);
                w.put_u64(s.sessions_resumed);
            }
            Response::Error { code } => {
                header(&mut w, 8);
                w.put_u8(code.tag());
            }
            Response::InsertAck { stream_seq, accepted, durable_len, throttle } => {
                header(&mut w, 9);
                w.put_u64(*stream_seq);
                w.put_u64(*accepted);
                w.put_u64(*durable_len);
                w.put_u8(u8::from(*throttle));
            }
            Response::StreamNack { expected_seq } => {
                header(&mut w, 10);
                w.put_u64(*expected_seq);
            }
            Response::Beat { manager, intake_pending, shedding } => {
                header(&mut w, 11);
                w.put_u64(manager.0);
                w.put_u64(*intake_pending);
                w.put_u8(u8::from(*shedding));
            }
            Response::StreamState { durable_seq, accepted } => {
                header(&mut w, 12);
                w.put_u64(*durable_seq);
                w.put_u64(*accepted);
            }
        }
        w.into_bytes()
    }

    /// Decode from a frame payload. Never panics; never trusts a count.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let resp = match read_header(&mut r)? {
            1 => Response::Ack { seq: r.get_u64()?, accepted: r.get_u64()? },
            2 => Response::Reputation {
                known: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(CodecError::InvalidTag(other)),
                },
                signed: r.get_i64()?,
                view_version: r.get_u64()?,
            },
            3 => Response::Frozen { round: r.get_u64()?, nodes: r.get_u64()? },
            4 => Response::Round(RoundReport {
                round: r.get_u64()?,
                confirmed: get_pairs(&mut r)?,
                unconfirmed: get_pairs(&mut r)?,
                fault: get_fault_stats(&mut r)?,
            }),
            5 => Response::Verdict(ConfirmVerdict {
                known: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(CodecError::InvalidTag(other)),
                },
                high_reputed: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(CodecError::InvalidTag(other)),
                },
                reverse: get_opt_evidence(&mut r)?,
            }),
            7 => Response::Status(StatusInfo {
                manager: NodeId(r.get_u64()?),
                recorded: r.get_u64()?,
                wal_next_seq: r.get_u64()?,
                round: r.get_u64()?,
                view_version: r.get_u64()?,
                durable_len: r.get_u64()?,
                wal_len: r.get_u64()?,
                intake_pending: r.get_u64()?,
                stream_frames: r.get_u64()?,
                stream_ratings: r.get_u64()?,
                throttled_frames: r.get_u64()?,
                refused_frames: r.get_u64()?,
                sessions_resumed: r.get_u64()?,
            }),
            8 => Response::Error { code: ErrorCode::from_tag(r.get_u8()?)? },
            9 => Response::InsertAck {
                stream_seq: r.get_u64()?,
                accepted: r.get_u64()?,
                durable_len: r.get_u64()?,
                throttle: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(CodecError::InvalidTag(other)),
                },
            },
            10 => Response::StreamNack { expected_seq: r.get_u64()? },
            11 => Response::Beat {
                manager: NodeId(r.get_u64()?),
                intake_pending: r.get_u64()?,
                shedding: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(CodecError::InvalidTag(other)),
                },
            },
            12 => Response::StreamState { durable_seq: r.get_u64()?, accepted: r.get_u64()? },
            other => return Err(CodecError::InvalidTag(other)),
        };
        if !r.is_exhausted() {
            return Err(CodecError::BadLength);
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Query(NodeId(42)),
            Request::CloseEpoch,
            Request::Freeze { round: 7 },
            Request::DetectRound { round: 7 },
            Request::Confirm { round: 7, ratee: NodeId(11), rater: NodeId(13) },
            Request::SetPeers(vec![PeerAddr {
                manager: NodeId(0x4000_0001),
                ip: [127, 0, 0, 1],
                port: 45123,
            }]),
            Request::Status,
            Request::InsertStream {
                session: 0xFEED_F00D,
                stream_seq: 17,
                ratings: vec![
                    Rating::positive(NodeId(1), NodeId(2), SimTime(4)),
                    Rating::neutral(NodeId(3), NodeId(2), SimTime(5)),
                ],
            },
            Request::InsertStream { session: 0, stream_seq: 1, ratings: vec![] },
            Request::StreamFlush,
            Request::StreamResume { session: u64::MAX },
            Request::Heartbeat,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).expect("decode"), req, "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let ev = DirectionEvidence {
            pair_ratings: 600,
            fraction_a: Some(0.97),
            fraction_b: None,
            signed_reputation: -12,
        };
        let pair = WirePair {
            low: NodeId(3),
            high: NodeId(9),
            low_boosts_high: Some(ev),
            high_boosts_low: None,
        };
        let resps = [
            Response::Ack { seq: 1234, accepted: 256 },
            Response::Reputation { known: true, signed: -5, view_version: 9 },
            Response::Frozen { round: 1, nodes: 13 },
            Response::Round(RoundReport {
                round: 1,
                confirmed: vec![pair],
                unconfirmed: vec![],
                fault: FaultStats { exchanges: 4, retries: 1, ..FaultStats::default() },
            }),
            Response::Verdict(ConfirmVerdict {
                known: true,
                high_reputed: true,
                reverse: Some(ev),
            }),
            Response::Status(StatusInfo {
                manager: NodeId(7),
                recorded: 100,
                wal_next_seq: 101,
                round: 2,
                view_version: 3,
                durable_len: 2048,
                wal_len: 4096,
                intake_pending: 12,
                stream_frames: 9,
                stream_ratings: 900,
                throttled_frames: 3,
                refused_frames: 1,
                sessions_resumed: 2,
            }),
            Response::Error { code: ErrorCode::NotFrozen },
            Response::Error { code: ErrorCode::Overloaded },
            Response::InsertAck {
                stream_seq: 42,
                accepted: 10_500,
                durable_len: 1 << 30,
                throttle: false,
            },
            Response::InsertAck {
                stream_seq: 43,
                accepted: 10_750,
                durable_len: 1 << 31,
                throttle: true,
            },
            Response::StreamNack { expected_seq: 18 },
            Response::Beat { manager: NodeId(0x4000_0002), intake_pending: 4096, shedding: true },
            Response::StreamState { durable_seq: 41, accepted: 10_250 },
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).expect("decode"), resp, "{resp:?}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = Request::Heartbeat.encode();
        bytes[0] = PROTOCOL_VERSION + 1;
        assert_eq!(Request::decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn retired_tags_are_rejected() {
        // tag 1 carried one rating, tag 2 a counted batch; both are retired
        let mut one = vec![PROTOCOL_VERSION, 1];
        let mut w = ByteWriter::new();
        put_rating(&mut w, &Rating::positive(NodeId(3), NodeId(9), SimTime(77)));
        one.extend_from_slice(w.as_bytes());
        assert_eq!(Request::decode(&one), Err(CodecError::InvalidTag(1)));
        let mut batch = vec![PROTOCOL_VERSION, 2];
        let mut w = ByteWriter::new();
        put_ratings(&mut w, &[Rating::negative(NodeId(2), NodeId(1), SimTime(2))]);
        batch.extend_from_slice(w.as_bytes());
        assert_eq!(Request::decode(&batch), Err(CodecError::InvalidTag(2)));
        // tag 3 carried a counted replica batch
        batch[1] = 3;
        assert_eq!(Request::decode(&batch), Err(CodecError::InvalidTag(3)));
        // the bare probe and verdict fetch, their replies, and error codes
        // 1 and 4
        for tag in [0, 9] {
            assert_eq!(Request::decode(&[PROTOCOL_VERSION, tag]), Err(CodecError::InvalidTag(tag)));
        }
        for tag in [0, 6] {
            let mut reply = vec![PROTOCOL_VERSION, tag];
            reply.extend_from_slice(&[0; 8]);
            assert_eq!(Response::decode(&reply), Err(CodecError::InvalidTag(tag)));
        }
        for code in [1, 4] {
            assert_eq!(
                Response::decode(&[PROTOCOL_VERSION, 8, code]),
                Err(CodecError::InvalidTag(code))
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Request::Query(NodeId(1)).encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(CodecError::BadLength));
    }

    #[test]
    fn hostile_counts_cannot_allocate() {
        // a stream frame (tag 12): session + stream_seq + a rating count
        // claiming u64::MAX / 2 with no bytes behind it
        let mut w = ByteWriter::new();
        w.put_u8(PROTOCOL_VERSION);
        w.put_u8(12);
        w.put_u64(7);
        w.put_u64(1);
        w.put_u64(u64::MAX / 2);
        assert_eq!(Request::decode(w.as_bytes()), Err(CodecError::BadLength));
    }

    #[test]
    fn direct_stream_encode_matches_the_owned_variant() {
        let ratings = vec![
            Rating::positive(NodeId(1), NodeId(2), SimTime(4)),
            Rating::negative(NodeId(9), NodeId(2), SimTime(5)),
        ];
        let owned =
            Request::InsertStream { session: 0xAB, stream_seq: 6, ratings: ratings.clone() }
                .encode();
        assert_eq!(Request::encode_insert_stream(0xAB, 6, &ratings), owned);
        assert_eq!(
            Request::encode_insert_stream(0, 1, &[]),
            Request::InsertStream { session: 0, stream_seq: 1, ratings: vec![] }.encode()
        );
    }
}

//! RPC client: per-call deadlines, bounded exponential-backoff retries with
//! deterministic jitter, and failover across successor replicas.
//!
//! Every call runs under two clocks:
//!
//! * an **attempt budget** — connect + write + read of one try, after which
//!   the connection is abandoned (a dropped request or response frame shows
//!   up as a read timeout here);
//! * a **total deadline** — the hard ceiling across all retries and
//!   failover targets. When it expires the call returns
//!   [`RpcError::DeadlineExceeded`] and the caller degrades (an unconfirmed
//!   verdict, a skipped replica push) instead of hanging.
//!
//! Between attempts the client backs off exponentially with jitter drawn
//! from the workspace's seeded [`FaultRng`] stream, and rotates through the
//! provided replica addresses (owner first, then successors), so a dead
//! owner fails over to a backup within the same total deadline.
//!
//! Healthy connections are pooled per address and reused across calls; any
//! error or timeout discards the connection (after a timeout the stream is
//! ambiguous — a late response would desynchronize the next call).
//!
//! Accounting reuses [`FaultStats`] — the same schema the in-process
//! [`crate::fault::FaultSession`] emits — so the networked robustness grid
//! and the in-process one report through identical fields. Tick unit here:
//! milliseconds.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use collusion_reputation::codec::CodecError;
use collusion_reputation::frame::{
    encode_frame_into, read_frame, write_frame, FrameError, MAX_FRAME_PAYLOAD,
};
use collusion_reputation::rating::Rating;

use crate::fault::{FaultRng, FaultStats};
use crate::net::wire::{ErrorCode, Request, Response};

/// Domain salt of the retry-jitter stream.
const JITTER_SALT: u64 = 0x6a69_7474_6572_2121;

/// Milliseconds a single fault may take to heal before a
/// [`ResumableStream`] gives up (covers kill → respawn → WAL replay of a
/// whole manager).
const RECOVER_DEADLINE_MS: u64 = 30_000;

/// Client timing and retry policy. All durations in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout_ms: u64,
    /// Write + read budget per attempt.
    pub attempt_timeout_ms: u64,
    /// Hard ceiling across all retries and failover targets.
    pub total_deadline_ms: u64,
    /// Retries after the first attempt (attempts = `max_retries + 1`,
    /// deadline permitting).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry, jittered.
    pub backoff_base_ms: u64,
    /// Seed of the jitter stream (deterministic per client).
    pub jitter_seed: u64,
    /// Frame payload ceiling accepted from peers.
    pub max_frame: u32,
}

impl RpcConfig {
    /// Localhost-cluster defaults: tight per-attempt budgets, a few
    /// hundred milliseconds of total patience, three retries.
    pub fn lan() -> Self {
        RpcConfig {
            connect_timeout_ms: 250,
            attempt_timeout_ms: 400,
            total_deadline_ms: 2_000,
            max_retries: 3,
            backoff_base_ms: 10,
            jitter_seed: 0,
            max_frame: MAX_FRAME_PAYLOAD,
        }
    }

    /// Replace the jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig::lan()
    }
}

/// Why an RPC failed (after all retries and failover targets).
#[derive(Debug)]
pub enum RpcError {
    /// Transport failure on the last attempt.
    Io(io::Error),
    /// Framing failure on the last attempt (corrupt/oversized frame).
    Frame(FrameError),
    /// The response payload did not decode.
    Codec(CodecError),
    /// The total deadline expired before any attempt succeeded.
    DeadlineExceeded,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "rpc transport error: {e}"),
            RpcError::Frame(e) => write!(f, "rpc framing error: {e}"),
            RpcError::Codec(e) => write!(f, "rpc decode error: {e}"),
            RpcError::DeadlineExceeded => write!(f, "rpc total deadline exceeded"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<io::Error> for RpcError {
    fn from(e: io::Error) -> Self {
        RpcError::Io(e)
    }
}

impl From<FrameError> for RpcError {
    fn from(e: FrameError) -> Self {
        RpcError::Frame(e)
    }
}

/// A pooled, deadline-aware RPC client.
#[derive(Debug)]
pub struct RpcClient {
    cfg: RpcConfig,
    jitter: FaultRng,
    conns: HashMap<SocketAddr, TcpStream>,
    stats: FaultStats,
}

impl RpcClient {
    /// Client with the given policy.
    pub fn new(cfg: RpcConfig) -> Self {
        RpcClient {
            cfg,
            jitter: FaultRng::for_stream(cfg.jitter_seed, 0, JITTER_SALT),
            conns: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The policy in effect.
    pub fn config(&self) -> RpcConfig {
        self.cfg
    }

    /// Accounting so far (exchanges, retries, failures, deadline hits).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Call one address (no failover).
    pub fn call(&mut self, addr: SocketAddr, req: &Request) -> Result<Response, RpcError> {
        self.call_failover(&[addr], req)
    }

    /// Call with failover: `addrs` holds the owner first, then its
    /// successor replicas. Attempts rotate through the list — attempt `k`
    /// goes to `addrs[k % addrs.len()]` — under one shared total deadline.
    pub fn call_failover(
        &mut self,
        addrs: &[SocketAddr],
        req: &Request,
    ) -> Result<Response, RpcError> {
        assert!(!addrs.is_empty(), "call_failover needs at least one address");
        self.stats.exchanges += 1;
        let start = Instant::now();
        let total = Duration::from_millis(self.cfg.total_deadline_ms);
        let payload = req.encode();
        let mut attempt = 0u32;
        loop {
            let elapsed = start.elapsed();
            if elapsed >= total {
                self.stats.failed_exchanges += 1;
                self.stats.deadline_exceeded += 1;
                return Err(RpcError::DeadlineExceeded);
            }
            let budget = Duration::from_millis(self.cfg.attempt_timeout_ms).min(total - elapsed);
            let addr = addrs[attempt as usize % addrs.len()];
            match self.attempt(addr, &payload, budget) {
                Ok(resp) => return Ok(resp),
                Err(err) => {
                    if attempt >= self.cfg.max_retries {
                        self.stats.failed_exchanges += 1;
                        if matches!(err, RpcError::DeadlineExceeded) {
                            self.stats.deadline_exceeded += 1;
                        }
                        return Err(err);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    // exponential backoff with jitter in [0, base), capped
                    // by what remains of the total deadline
                    let base = self.cfg.backoff_base_ms << (attempt - 1).min(16);
                    let jitter = if base == 0 { 0 } else { self.jitter.below(base) };
                    let remaining = total.saturating_sub(start.elapsed());
                    let wait = Duration::from_millis(base + jitter).min(remaining);
                    self.stats.backoff_ticks += wait.as_millis() as u64;
                    std::thread::sleep(wait);
                }
            }
        }
    }

    /// One try against one address under one budget. Pools the connection
    /// on success, discards it on any failure.
    fn attempt(
        &mut self,
        addr: SocketAddr,
        payload: &[u8],
        budget: Duration,
    ) -> Result<Response, RpcError> {
        let deadline = Instant::now() + budget;
        let mut stream = match self.conns.remove(&addr) {
            Some(s) => s,
            None => {
                let connect =
                    Duration::from_millis(self.cfg.connect_timeout_ms).min(budget).max(MIN_BUDGET);
                let s = TcpStream::connect_timeout(&addr, connect)?;
                s.set_nodelay(true).ok();
                s
            }
        };
        let remaining = remaining_budget(deadline)?;
        stream.set_write_timeout(Some(remaining))?;
        self.stats.messages_sent += 1; // request offered to the network
        write_frame(&mut stream, payload)?;
        let remaining = remaining_budget(deadline)?;
        stream.set_read_timeout(Some(remaining))?;
        // a request or response frame lost or late reads as a timeout: the
        // attempt's budget is the per-attempt deadline firing
        let reply = read_frame(&mut stream, self.cfg.max_frame)?;
        let resp = Response::decode(&reply).map_err(RpcError::Codec)?;
        self.conns.insert(addr, stream); // healthy — keep for reuse
        Ok(resp)
    }

    /// Drop the pooled connection to `addr` (used by harnesses after a
    /// server restarts on the same address).
    pub fn forget(&mut self, addr: SocketAddr) {
        self.conns.remove(&addr);
    }

    /// Open a windowed `InsertStream` session to `addr`, reusing a pooled
    /// connection when one exists. The session owns the connection until
    /// [`RpcClient::close_insert_stream`] hands it back; a session that
    /// errors (or is dropped mid-flight) takes the connection with it —
    /// a half-written stream is never re-pooled.
    pub fn open_insert_stream(
        &mut self,
        addr: SocketAddr,
        window: usize,
    ) -> Result<InsertStream, RpcError> {
        let stream = match self.conns.remove(&addr) {
            Some(s) => s,
            None => {
                let connect = Duration::from_millis(self.cfg.connect_timeout_ms).max(MIN_BUDGET);
                let s = TcpStream::connect_timeout(&addr, connect)?;
                s.set_nodelay(true).ok();
                s
            }
        };
        Ok(InsertStream::new(addr, stream, window.max(1), self.cfg))
    }

    /// Drain a session's outstanding acks and, on clean success, return the
    /// connection to the pool for plain RPC reuse. On any error the
    /// connection is discarded (the stream position is ambiguous).
    pub fn close_insert_stream(&mut self, session: InsertStream) -> Result<StreamStats, RpcError> {
        let (addr, stream, stats) = session.finish()?;
        self.conns.insert(addr, stream);
        Ok(stats)
    }
}

/// Telemetry of one `InsertStream` session.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Frames handed to the transport.
    pub frames_sent: u64,
    /// Encoded bytes handed to the transport (frame headers included).
    pub bytes_sent: u64,
    /// Frames covered by the highest cumulative ack.
    pub frames_acked: u64,
    /// Ratings the server reported accepted **and durable**.
    pub ratings_acked: u64,
    /// The server's WAL durable watermark as of the last ack.
    pub durable_len: u64,
}

/// A windowed streaming-insert session: up to `window` un-acked frames in
/// flight over one pooled connection, frame encodes coalesced into a
/// staging buffer so a whole window leaves in few `write` syscalls.
///
/// Acks are cumulative and the server only sends them once the WAL durable
/// watermark covers a frame's bytes, so [`StreamStats::ratings_acked`]
/// counts ratings that survive a crash. Any transport or protocol error
/// poisons the session; a poisoned session's connection is never re-pooled.
/// Frames carry session id 0, the anonymous stream a reconnect cannot
/// resume; [`ResumableStream`] is the resumable client.
#[derive(Debug)]
pub struct InsertStream {
    addr: SocketAddr,
    stream: TcpStream,
    window: u64,
    /// Frame number of the next `send` (1-based, per connection).
    next_seq: u64,
    /// Highest frame number covered by a cumulative ack.
    acked_seq: u64,
    /// Coalesced encoded frames not yet written to the socket.
    staged: Vec<u8>,
    /// Whether the last ack asked the sender to stall (window drops to 1
    /// until a non-throttled ack arrives).
    throttled: bool,
    stats: StreamStats,
    cfg: RpcConfig,
    poisoned: bool,
}

/// Flush the staging buffer once it holds this many bytes even if the
/// window still has room: bounds client memory and keeps the server fed.
const STAGE_FLUSH_BYTES: usize = 64 * 1024;

impl InsertStream {
    fn new(addr: SocketAddr, stream: TcpStream, window: usize, cfg: RpcConfig) -> Self {
        InsertStream {
            addr,
            stream,
            window: window as u64,
            next_seq: 1,
            acked_seq: 0,
            staged: Vec::with_capacity(STAGE_FLUSH_BYTES + 1024),
            throttled: false,
            stats: StreamStats::default(),
            cfg,
            poisoned: false,
        }
    }

    /// Stats so far (sent counters are current; acked counters trail until
    /// [`RpcClient::close_insert_stream`] drains the window).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Frames sent but not yet covered by an ack (staged frames included).
    pub fn in_flight(&self) -> u64 {
        (self.next_seq - 1) - self.acked_seq
    }

    /// Queue one `InsertStream` frame, blocking for acks only when the
    /// window is full.
    pub fn send(&mut self, ratings: &[Rating]) -> Result<(), RpcError> {
        self.guard()?;
        // encode straight from the slice — no per-batch Vec clone
        let payload = Request::encode_insert_stream(0, self.next_seq, ratings);
        let before = self.staged.len();
        encode_frame_into(&payload, &mut self.staged);
        self.next_seq += 1;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += (self.staged.len() - before) as u64;
        let window = if self.throttled { 1 } else { self.window };
        if self.in_flight() >= window {
            // window full: ask the server for a durability barrier, push
            // the staged frames out, and block for one ack
            self.run(|s| {
                s.stage_barrier();
                s.flush_staged()?;
                s.read_ack()
            })
        } else if self.staged.len() >= STAGE_FLUSH_BYTES {
            self.run(Self::flush_staged)
        } else {
            Ok(())
        }
    }

    /// Push staged frames to the transport, trailed by a `StreamFlush`
    /// barrier, without blocking for acks. Lets a caller multiplexing
    /// several sessions get every server fsyncing before it starts
    /// draining windows — the barriers overlap instead of serializing.
    pub fn flush(&mut self) -> Result<(), RpcError> {
        self.guard()?;
        self.run(|s| {
            s.stage_barrier();
            s.flush_staged()
        })
    }

    /// Flush staged frames and block until every sent frame is acked, then
    /// yield the (healthy) connection back for pooling.
    fn finish(mut self) -> Result<(SocketAddr, TcpStream, StreamStats), RpcError> {
        self.guard()?;
        self.run(|s| {
            s.stage_barrier();
            s.flush_staged()
        })?;
        while self.acked_seq < self.next_seq - 1 {
            self.run(Self::read_ack)?;
        }
        Ok((self.addr, self.stream, self.stats))
    }

    /// Stage a `StreamFlush` barrier frame behind the data frames. The
    /// server fsyncs only where these land — at window stalls and session
    /// close — so a burst costs one targeted fsync instead of one per gap
    /// in socket traffic.
    fn stage_barrier(&mut self) {
        let before = self.staged.len();
        encode_frame_into(&Request::StreamFlush.encode(), &mut self.staged);
        self.stats.bytes_sent += (self.staged.len() - before) as u64;
    }

    fn guard(&self) -> Result<(), RpcError> {
        if self.poisoned {
            return Err(RpcError::Io(io::Error::other("insert stream already failed")));
        }
        Ok(())
    }

    /// Run one transport step, poisoning the session on any error.
    fn run(
        &mut self,
        step: impl FnOnce(&mut Self) -> Result<(), RpcError>,
    ) -> Result<(), RpcError> {
        let out = step(self);
        if out.is_err() {
            self.poisoned = true;
        }
        out
    }

    fn flush_staged(&mut self) -> Result<(), RpcError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let budget = Duration::from_millis(self.cfg.attempt_timeout_ms).max(MIN_BUDGET);
        self.stream.set_write_timeout(Some(budget))?;
        self.stream.write_all(&self.staged)?;
        self.staged.clear();
        Ok(())
    }

    /// Block for one cumulative ack and fold it into the stats.
    fn read_ack(&mut self) -> Result<(), RpcError> {
        let budget = Duration::from_millis(self.cfg.attempt_timeout_ms).max(MIN_BUDGET);
        self.stream.set_read_timeout(Some(budget))?;
        let payload = read_frame(&mut self.stream, self.cfg.max_frame)?;
        match Response::decode(&payload).map_err(RpcError::Codec)? {
            Response::InsertAck { stream_seq, accepted, durable_len, throttle } => {
                if stream_seq <= self.acked_seq || stream_seq >= self.next_seq {
                    return Err(RpcError::Io(io::Error::other("ack out of sequence")));
                }
                self.acked_seq = stream_seq;
                self.throttled = throttle;
                self.stats.frames_acked = stream_seq;
                self.stats.ratings_acked = accepted;
                self.stats.durable_len = durable_len;
                Ok(())
            }
            Response::StreamNack { expected_seq } => Err(RpcError::Io(io::Error::other(format!(
                "stream out of sequence: server expects frame {expected_seq}"
            )))),
            Response::Error { code } => {
                Err(RpcError::Io(io::Error::other(format!("server rejected stream: {code:?}"))))
            }
            other => Err(RpcError::Io(io::Error::other(format!(
                "unexpected stream response: {other:?}"
            )))),
        }
    }
}

/// Telemetry of one [`ResumableStream`] session, cumulative across every
/// reconnect and failover.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResumeStats {
    /// Distinct frames handed to a transport at least once.
    pub frames_sent: u64,
    /// Frames re-sent after a resume (retransmissions, not new frames).
    pub frames_retransmitted: u64,
    /// Successful `StreamResume` handshakes (the first connect included).
    pub resumes: u64,
    /// Recovery attempts that failed (dead address, refused resume).
    pub failed_recoveries: u64,
    /// `Overloaded` refusals absorbed (frame retried after backoff).
    pub overload_refusals: u64,
    /// Highest frame number the server has acked durable.
    pub acked_seq: u64,
    /// Ratings the server reported accepted **and durable**.
    pub ratings_acked: u64,
    /// Wall-clock milliseconds spent in recovery (fault detected →
    /// streaming again), summed across recoveries.
    pub recovery_ms: u64,
}

/// A self-healing windowed insert stream: the client side of the
/// exactly-once session protocol.
///
/// Every frame carries the session id and a 1-based sequence number; sent
/// frames stay buffered (encoded) until a cumulative durable ack covers
/// them. On *any* fault — connection loss, a [`Response::StreamNack`]
/// desync, an [`ErrorCode::Overloaded`] refusal — the stream reconnects
/// via its address resolver (re-resolved every attempt, so a manager
/// reborn on a new port or a promoted replica is picked up), performs a
/// `StreamResume` handshake to learn the server's durable watermark, drops
/// the buffered frames the watermark covers, and retransmits the rest.
/// Server-side dedup by `(session, seq)` makes the retransmissions
/// exactly-once: no acked rating is lost, no frame is applied twice.
///
/// Backpressure: an ack carrying `throttle` shrinks the effective window
/// to one frame (send → ack lockstep) until a non-throttled ack arrives;
/// an `Overloaded` refusal backs off exponentially before resuming.
pub struct ResumableStream {
    session: u64,
    window: u64,
    cfg: RpcConfig,
    resolver: Box<dyn FnMut() -> Vec<SocketAddr> + Send>,
    conn: Option<TcpStream>,
    next_seq: u64,
    acked_seq: u64,
    /// Encoded-but-unacked frames, oldest first: `(seq, request payload)`.
    unacked: VecDeque<(u64, Vec<u8>)>,
    staged: Vec<u8>,
    throttled: bool,
    /// Consecutive `Overloaded` refusals (drives the overload backoff).
    overloads: u32,
    jitter: FaultRng,
    stats: ResumeStats,
}

impl fmt::Debug for ResumableStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResumableStream")
            .field("session", &self.session)
            .field("next_seq", &self.next_seq)
            .field("acked_seq", &self.acked_seq)
            .field("unacked", &self.unacked.len())
            .finish()
    }
}

impl ResumableStream {
    /// Open a resumable stream. `session` must be non-zero and unique per
    /// logical stream; `resolver` returns the current failover order
    /// (primary first) and is re-invoked on every recovery attempt.
    /// No I/O happens here — the first `send` connects and resumes.
    pub fn open(
        session: u64,
        window: usize,
        cfg: RpcConfig,
        resolver: impl FnMut() -> Vec<SocketAddr> + Send + 'static,
    ) -> Self {
        assert!(session != 0, "session 0 is the anonymous (non-resumable) stream id");
        ResumableStream {
            session,
            window: window.max(1) as u64,
            cfg,
            resolver: Box::new(resolver),
            conn: None,
            next_seq: 1,
            acked_seq: 0,
            unacked: VecDeque::new(),
            staged: Vec::with_capacity(STAGE_FLUSH_BYTES + 1024),
            throttled: false,
            overloads: 0,
            jitter: FaultRng::for_stream(cfg.jitter_seed, session, JITTER_SALT),
            stats: ResumeStats::default(),
        }
    }

    /// Stats so far (acked counters trail until [`ResumableStream::finish`]).
    pub fn stats(&self) -> ResumeStats {
        self.stats
    }

    /// Queue one frame, driving the transport (and healing faults) as
    /// needed to keep at most `window` frames un-acked.
    pub fn send(&mut self, ratings: &[Rating]) -> Result<(), RpcError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = Request::encode_insert_stream(self.session, seq, ratings);
        encode_frame_into(&payload, &mut self.staged);
        self.unacked.push_back((seq, payload));
        self.stats.frames_sent += 1;
        self.drive(false)
    }

    /// Flush and block until every sent frame is acked durable.
    pub fn finish(&mut self) -> Result<ResumeStats, RpcError> {
        self.drive(true)?;
        Ok(self.stats)
    }

    /// Drive the transport until the window has room (`drain = false`) or
    /// everything is acked (`drain = true`), recovering from faults under
    /// the per-fault deadline.
    fn drive(&mut self, drain: bool) -> Result<(), RpcError> {
        loop {
            match self.step(drain) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.conn = None;
                    self.staged.clear();
                    let fault_at = Instant::now();
                    let deadline = fault_at + Duration::from_millis(RECOVER_DEADLINE_MS);
                    if self.overloads > 0 {
                        // a shedding server is alive — reconnecting would
                        // succeed instantly, so the relief has to come from
                        // an explicit pause that doubles per refusal
                        let base = self.cfg.backoff_base_ms.max(1) << self.overloads.min(10);
                        std::thread::sleep(Duration::from_millis(base + self.jitter.below(base)));
                    }
                    let mut attempt = 0u32;
                    loop {
                        if Instant::now() >= deadline {
                            return Err(e);
                        }
                        if self.recover().is_ok() {
                            self.stats.recovery_ms += fault_at.elapsed().as_millis() as u64;
                            break;
                        }
                        self.stats.failed_recoveries += 1;
                        // exponential backoff with seeded jitter, capped at
                        // the deadline
                        let base = self.cfg.backoff_base_ms.max(1) << attempt.min(10);
                        let wait = Duration::from_millis(base + self.jitter.below(base))
                            .min(deadline.saturating_duration_since(Instant::now()));
                        std::thread::sleep(wait);
                        attempt += 1;
                    }
                }
            }
        }
    }

    /// One fault-free transport step. Any `Err` means the connection is
    /// ambiguous and must be recovered by a resume handshake.
    fn step(&mut self, drain: bool) -> Result<(), RpcError> {
        if self.conn.is_none() {
            // first connect or post-fault reconnect: resume-or-start
            return Err(RpcError::Io(io::Error::other("not connected")));
        }
        let window = if self.throttled { 1 } else { self.window };
        let over = self.unacked.len() as u64 >= window;
        if !over && !drain {
            if self.staged.len() >= STAGE_FLUSH_BYTES {
                self.flush_staged(false)?;
            }
            return Ok(());
        }
        self.flush_staged(true)?;
        while if drain { !self.unacked.is_empty() } else { self.unacked.len() as u64 >= window } {
            self.read_ack()?;
        }
        Ok(())
    }

    fn flush_staged(&mut self, barrier: bool) -> Result<(), RpcError> {
        if barrier {
            encode_frame_into(&Request::StreamFlush.encode(), &mut self.staged);
        }
        if self.staged.is_empty() {
            return Ok(());
        }
        let stream = self.conn.as_mut().expect("flush_staged requires a connection");
        let budget = Duration::from_millis(self.cfg.attempt_timeout_ms).max(MIN_BUDGET);
        stream.set_write_timeout(Some(budget))?;
        stream.write_all(&self.staged)?;
        self.staged.clear();
        Ok(())
    }

    fn read_ack(&mut self) -> Result<(), RpcError> {
        let stream = self.conn.as_mut().expect("read_ack requires a connection");
        let budget = Duration::from_millis(self.cfg.attempt_timeout_ms).max(MIN_BUDGET);
        stream.set_read_timeout(Some(budget))?;
        let payload = read_frame(stream, self.cfg.max_frame)?;
        match Response::decode(&payload).map_err(RpcError::Codec)? {
            Response::InsertAck { stream_seq, accepted, throttle, .. } => {
                if stream_seq <= self.acked_seq || stream_seq >= self.next_seq {
                    return Err(RpcError::Io(io::Error::other("ack out of sequence")));
                }
                self.apply_watermark(stream_seq, accepted);
                self.throttled = throttle;
                self.overloads = 0;
                Ok(())
            }
            // both paths heal through the same resume handshake; the
            // distinction is only how hard the recovery backs off
            Response::Error { code: ErrorCode::Overloaded } => {
                self.stats.overload_refusals += 1;
                self.overloads = (self.overloads + 1).min(8);
                Err(RpcError::Io(io::Error::other("server shedding load")))
            }
            Response::StreamNack { expected_seq } => Err(RpcError::Io(io::Error::other(format!(
                "stream desync: server expects frame {expected_seq}"
            )))),
            other => Err(RpcError::Io(io::Error::other(format!(
                "unexpected stream response: {other:?}"
            )))),
        }
    }

    /// Drop buffered frames the server holds durable through `acked_seq`.
    fn apply_watermark(&mut self, acked_seq: u64, accepted: u64) {
        while self.unacked.front().is_some_and(|&(seq, _)| seq <= acked_seq) {
            self.unacked.pop_front();
        }
        self.acked_seq = acked_seq;
        self.stats.acked_seq = acked_seq;
        self.stats.ratings_acked = accepted;
    }

    /// One recovery attempt: re-resolve the failover order, connect to the
    /// first address that answers a `StreamResume`, adopt its durable
    /// watermark, and restage every frame past it for retransmission.
    fn recover(&mut self) -> Result<(), RpcError> {
        let addrs = (self.resolver)();
        let mut last: RpcError = RpcError::Io(io::Error::other("resolver returned no addresses"));
        for addr in addrs {
            match self.try_resume(addr) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn try_resume(&mut self, addr: SocketAddr) -> Result<(), RpcError> {
        let connect = Duration::from_millis(self.cfg.connect_timeout_ms).max(MIN_BUDGET);
        let mut stream = TcpStream::connect_timeout(&addr, connect)?;
        stream.set_nodelay(true).ok();
        let budget = Duration::from_millis(self.cfg.attempt_timeout_ms).max(MIN_BUDGET);
        stream.set_write_timeout(Some(budget))?;
        write_frame(&mut stream, &Request::StreamResume { session: self.session }.encode())?;
        stream.set_read_timeout(Some(budget))?;
        let payload = read_frame(&mut stream, self.cfg.max_frame)?;
        match Response::decode(&payload).map_err(RpcError::Codec)? {
            Response::StreamState { durable_seq, accepted } => {
                if durable_seq >= self.next_seq {
                    return Err(RpcError::Io(io::Error::other(
                        "server watermark ahead of the client stream",
                    )));
                }
                if durable_seq > self.acked_seq {
                    self.apply_watermark(durable_seq, accepted);
                }
                // retransmit everything past the durable watermark (the
                // first handshake restages frames never sent — not counted)
                self.staged.clear();
                for (_, payload) in &self.unacked {
                    encode_frame_into(payload, &mut self.staged);
                }
                if self.stats.resumes > 0 {
                    self.stats.frames_retransmitted += self.unacked.len() as u64;
                }
                self.throttled = false;
                self.stats.resumes += 1;
                self.conn = Some(stream);
                Ok(())
            }
            other => Err(RpcError::Io(io::Error::other(format!(
                "unexpected resume response: {other:?}"
            )))),
        }
    }
}

/// Tuning of the heartbeat failure detector.
#[derive(Clone, Copy, Debug)]
pub struct FailureDetectorConfig {
    /// Base pause between probe sweeps (milliseconds).
    pub probe_interval_ms: u64,
    /// Seeded jitter added to each pause, in `[0, jitter_ms)` — staggers
    /// detectors so a fleet never probes in lockstep.
    pub jitter_ms: u64,
    /// Consecutive missed probes before a peer is suspected. A peer that
    /// is merely slow (answers within the probe timeout) or drops fewer
    /// consecutive probes than this is **not** declared failed.
    pub suspicion_threshold: u32,
    /// Per-probe budget (connect + heartbeat round trip), milliseconds.
    pub probe_timeout_ms: u64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for FailureDetectorConfig {
    fn default() -> Self {
        FailureDetectorConfig {
            probe_interval_ms: 50,
            jitter_ms: 20,
            suspicion_threshold: 3,
            probe_timeout_ms: 150,
            seed: 0,
        }
    }
}

/// Health of one monitored peer.
#[derive(Clone, Copy, Debug, Default)]
struct PeerHealth {
    /// Consecutive missed probes.
    misses: u32,
    /// Latched once misses reach the suspicion threshold; cleared by the
    /// next successful probe.
    suspected: bool,
}

/// Heartbeat-based failure detector: probes peers with the lock-free
/// [`Request::Heartbeat`] RPC at seeded-jitter intervals and suspects a
/// peer only after [`FailureDetectorConfig::suspicion_threshold`]
/// consecutive misses — one dropped packet or a long fsync pause does not
/// declare a live manager dead, while a killed manager is detected within
/// roughly `threshold × (probe_timeout + interval)` milliseconds.
pub struct FailureDetector {
    cfg: FailureDetectorConfig,
    client: RpcClient,
    peers: HashMap<SocketAddr, PeerHealth>,
    jitter: FaultRng,
}

impl fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailureDetector").field("peers", &self.peers).finish()
    }
}

impl FailureDetector {
    /// Detector with the given policy.
    pub fn new(cfg: FailureDetectorConfig) -> Self {
        let rpc = RpcConfig {
            connect_timeout_ms: cfg.probe_timeout_ms,
            attempt_timeout_ms: cfg.probe_timeout_ms,
            total_deadline_ms: cfg.probe_timeout_ms,
            max_retries: 0, // a miss is the signal, never papered over
            backoff_base_ms: 0,
            jitter_seed: cfg.seed,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        FailureDetector {
            cfg,
            client: RpcClient::new(rpc),
            peers: HashMap::new(),
            jitter: FaultRng::for_stream(cfg.seed, 0x4662_4421, JITTER_SALT),
        }
    }

    /// Probe one peer now. Returns whether it answered; updates the miss
    /// counter and the suspected latch.
    pub fn probe(&mut self, addr: SocketAddr) -> bool {
        let alive =
            matches!(self.client.call(addr, &Request::Heartbeat), Ok(Response::Beat { .. }));
        let h = self.peers.entry(addr).or_default();
        if alive {
            h.misses = 0;
            h.suspected = false;
        } else {
            self.client.forget(addr);
            h.misses += 1;
            if h.misses >= self.cfg.suspicion_threshold.max(1) {
                h.suspected = true;
            }
        }
        alive
    }

    /// Probe every address once, in order.
    pub fn sweep(&mut self, addrs: &[SocketAddr]) {
        for &a in addrs {
            self.probe(a);
        }
    }

    /// The jittered pause before the next sweep.
    pub fn next_pause(&mut self) -> Duration {
        let jitter =
            if self.cfg.jitter_ms == 0 { 0 } else { self.jitter.below(self.cfg.jitter_ms) };
        Duration::from_millis(self.cfg.probe_interval_ms + jitter)
    }

    /// Sweep `addrs` repeatedly (jittered pauses between sweeps) until
    /// `until` elapses or `addr_suspected` turns true for `watch`, and
    /// report how long detection took. `None` = never suspected.
    pub fn watch(
        &mut self,
        addrs: &[SocketAddr],
        watch: SocketAddr,
        until: Duration,
    ) -> Option<Duration> {
        let start = Instant::now();
        while start.elapsed() < until {
            self.sweep(addrs);
            if self.is_suspect(watch) {
                return Some(start.elapsed());
            }
            std::thread::sleep(self.next_pause());
        }
        None
    }

    /// Whether `addr` is currently suspected dead.
    pub fn is_suspect(&self, addr: SocketAddr) -> bool {
        self.peers.get(&addr).is_some_and(|h| h.suspected)
    }

    /// Consecutive misses recorded for `addr`.
    pub fn misses(&self, addr: SocketAddr) -> u32 {
        self.peers.get(&addr).map_or(0, |h| h.misses)
    }

    /// Every currently suspected peer.
    pub fn suspects(&self) -> Vec<SocketAddr> {
        let mut out: Vec<SocketAddr> =
            self.peers.iter().filter(|(_, h)| h.suspected).map(|(&a, _)| a).collect();
        out.sort_unstable();
        out
    }
}

/// Floor on socket timeouts: `set_read_timeout(Some(0))` is an error, and a
/// sub-millisecond budget would truncate to it.
const MIN_BUDGET: Duration = Duration::from_millis(1);

fn remaining_budget(deadline: Instant) -> Result<Duration, RpcError> {
    let now = Instant::now();
    if now >= deadline {
        return Err(RpcError::DeadlineExceeded);
    }
    Ok((deadline - now).max(MIN_BUDGET))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn deadline_bounds_a_dead_address() {
        // a bound-then-dropped listener leaves a refusing port; connect
        // fails fast, retries burn backoff, the call resolves well within
        // the wall-clock bound and reports its accounting
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let cfg = RpcConfig {
            connect_timeout_ms: 50,
            attempt_timeout_ms: 50,
            total_deadline_ms: 300,
            max_retries: 2,
            backoff_base_ms: 5,
            jitter_seed: 1,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let mut client = RpcClient::new(cfg);
        let start = Instant::now();
        let err = client.call(addr, &Request::Heartbeat);
        assert!(err.is_err(), "a dead port must not answer");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "refused connections must resolve fast, took {:?}",
            start.elapsed()
        );
        let stats = client.stats();
        assert_eq!(stats.exchanges, 1);
        assert_eq!(stats.failed_exchanges, 1);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn unresponsive_server_hits_the_total_deadline() {
        // a listener that accepts but never replies: every attempt times
        // out reading, and the total deadline caps the whole call
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sink = std::thread::spawn(move || {
            let mut held = Vec::new();
            listener.set_nonblocking(true).ok();
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(3) {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s); // accept and go silent
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let cfg = RpcConfig {
            connect_timeout_ms: 100,
            attempt_timeout_ms: 80,
            total_deadline_ms: 250,
            max_retries: 10,
            backoff_base_ms: 1,
            jitter_seed: 2,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let mut client = RpcClient::new(cfg);
        let start = Instant::now();
        let err = client.call(addr, &Request::Heartbeat);
        let elapsed = start.elapsed();
        assert!(err.is_err());
        assert!(
            elapsed < Duration::from_millis(1500),
            "total deadline 250ms must cap the call, took {elapsed:?}"
        );
        let stats = client.stats();
        assert_eq!(stats.failed_exchanges, 1);
        assert!(stats.retries > 0, "attempt timeouts must trigger retries");
        sink.join().expect("sink thread");
    }

    #[test]
    fn deadline_mid_call_discards_the_pooled_connection() {
        use std::sync::mpsc;

        // regression: a pooled connection whose call dies mid-write (or
        // waiting for a response) must be discarded. Reusing it would leave
        // a half-written frame on the wire and desynchronize every later
        // call on that connection.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (stall_tx, stall_rx) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let mut accepted = 0u32;
            // conn 1: answer one Heartbeat, then stall (stop reading) until the
            // client's big request has timed out mid-transfer
            let (mut s1, _) = listener.accept().expect("accept 1");
            accepted += 1;
            let payload = read_frame(&mut s1, MAX_FRAME_PAYLOAD).expect("read heartbeat");
            assert!(matches!(Request::decode(&payload), Ok(Request::Heartbeat)));
            let beat = Response::Beat {
                manager: collusion_reputation::id::NodeId(1),
                intake_pending: 0,
                shedding: false,
            };
            write_frame(&mut s1, &beat.encode()).expect("write beat");
            stall_rx.recv().expect("client failed its stalled call");
            drop(s1); // never read the half-sent frame
                      // conn 2: a healthy client reconnects and gets served
            let (mut s2, _) = listener.accept().expect("accept 2");
            accepted += 1;
            let payload = read_frame(&mut s2, MAX_FRAME_PAYLOAD).expect("read retry");
            assert!(matches!(Request::decode(&payload), Ok(Request::Heartbeat)));
            write_frame(&mut s2, &beat.encode()).expect("write beat 2");
            accepted
        });

        let cfg = RpcConfig {
            connect_timeout_ms: 200,
            attempt_timeout_ms: 100,
            total_deadline_ms: 150,
            max_retries: 0, // one attempt: the failure must not be papered over
            backoff_base_ms: 1,
            jitter_seed: 4,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let mut client = RpcClient::new(cfg);
        assert!(client.call(addr, &Request::Heartbeat).is_ok(), "first call pools the connection");

        // a batch large enough to overrun the socket buffers of a stalled
        // server: the write (or the response read) hits the deadline
        let big: Vec<Rating> = (0..40_000)
            .map(|k| {
                Rating::positive(
                    collusion_reputation::id::NodeId(k % 97),
                    collusion_reputation::id::NodeId(1 + k % 89),
                    collusion_reputation::id::SimTime(k),
                )
            })
            .collect();
        assert!(
            client.call(addr, &Request::Replicate(big)).is_err(),
            "the stalled call must fail, not hang"
        );
        stall_tx.send(()).expect("server thread alive");

        // the poisoned connection must be gone: this call reconnects
        let resp = client.call(addr, &Request::Heartbeat).expect("post-failure call");
        assert!(matches!(resp, Response::Beat { .. }));
        let accepted = server.join().expect("server thread");
        assert_eq!(accepted, 2, "the failed call's connection must not be reused");
    }

    #[test]
    fn failover_reaches_the_second_address() {
        // first address dead, second alive: the call must succeed via
        // rotation within its retry budget
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let alive = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let payload = read_frame(&mut s, MAX_FRAME_PAYLOAD).expect("read");
            assert!(Request::decode(&payload).is_ok());
            let resp = Response::Beat {
                manager: collusion_reputation::id::NodeId(7),
                intake_pending: 0,
                shedding: false,
            };
            write_frame(&mut s, &resp.encode()).expect("write");
        });
        let mut client = RpcClient::new(RpcConfig::lan().with_jitter_seed(3));
        let resp = client.call_failover(&[dead, alive], &Request::Heartbeat).expect("failover");
        assert!(matches!(resp, Response::Beat { .. }));
        assert!(client.stats().retries >= 1, "the dead owner must cost a retry");
        server.join().expect("server thread");
    }

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Minimal heartbeat responder: answers every request with `Beat`
    /// after `delay_ms`, until the stop flag trips.
    fn spawn_beat_server(
        delay_ms: u64,
    ) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop2.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        let stop = Arc::clone(&stop2);
                        conns.push(std::thread::spawn(move || {
                            s.set_read_timeout(Some(Duration::from_millis(50))).ok();
                            while !stop.load(Ordering::Acquire) {
                                match read_frame(&mut s, MAX_FRAME_PAYLOAD) {
                                    Ok(p) => {
                                        if Request::decode(&p).is_err() {
                                            break;
                                        }
                                        std::thread::sleep(Duration::from_millis(delay_ms));
                                        let beat = Response::Beat {
                                            manager: collusion_reputation::id::NodeId(9),
                                            intake_pending: 0,
                                            shedding: false,
                                        };
                                        if write_frame(&mut s, &beat.encode()).is_err() {
                                            break;
                                        }
                                    }
                                    Err(e) if e.is_timeout() => continue,
                                    Err(_) => break,
                                }
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for c in conns {
                c.join().ok();
            }
        });
        (addr, stop, t)
    }

    fn detector_config() -> FailureDetectorConfig {
        FailureDetectorConfig {
            probe_interval_ms: 20,
            jitter_ms: 10,
            suspicion_threshold: 3,
            probe_timeout_ms: 150,
            seed: 7,
        }
    }

    #[test]
    fn delayed_heartbeats_below_the_threshold_are_not_suspected() {
        // a slow-but-alive peer: responses arrive well inside the probe
        // budget, so it is never suspected no matter how many probes run
        let (addr, stop, server) = spawn_beat_server(40);
        let mut det = FailureDetector::new(detector_config());
        for _ in 0..4 {
            assert!(det.probe(addr), "a delayed beat inside the budget counts as alive");
        }
        assert_eq!(det.misses(addr), 0);
        assert!(!det.is_suspect(addr));

        // dead peer: misses accumulate but suspicion waits for the
        // threshold — one or two dropped probes never declare a death
        stop.store(true, Ordering::Release);
        server.join().expect("beat server");
        assert!(!det.probe(addr));
        assert!(!det.is_suspect(addr), "one miss must not suspect");
        assert!(!det.probe(addr));
        assert!(!det.is_suspect(addr), "two misses are still below the threshold");
        assert!(!det.probe(addr));
        assert!(det.is_suspect(addr), "the third consecutive miss crosses the threshold");
        assert_eq!(det.suspects(), vec![addr]);
    }

    #[test]
    fn a_killed_peer_is_suspected_within_the_detection_interval() {
        let (addr, stop, server) = spawn_beat_server(0);
        let cfg = detector_config();
        let mut det = FailureDetector::new(cfg);
        assert!(det.probe(addr), "healthy before the kill");
        stop.store(true, Ordering::Release);
        server.join().expect("beat server");
        let detected = det
            .watch(&[addr], addr, Duration::from_secs(5))
            .expect("a killed peer must be suspected");
        // bound: threshold probes, each at most probe_timeout + the
        // jittered pause, plus scheduling slack — a refused localhost
        // connect fails far faster in practice
        let bound = u128::from(
            cfg.suspicion_threshold as u64
                * (cfg.probe_timeout_ms + cfg.probe_interval_ms + cfg.jitter_ms),
        ) + 500;
        assert!(detected.as_millis() <= bound, "detection took {detected:?}, bound {bound}ms");
        assert!(det.is_suspect(addr));
    }
}

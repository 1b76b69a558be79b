//! Write-ahead log for epoch ratings.
//!
//! Detection state is a pure fold over the rating stream, so durability
//! reduces to making the stream itself durable: every rating a manager
//! accepts is appended to a WAL *before* it is considered recorded, and an
//! epoch-close marker is appended whenever the detection engine seals an
//! epoch. Crash recovery loads the newest valid checkpoint
//! ([`crate::checkpoint`]) and replays the WAL tail — every record with a
//! sequence number greater than the checkpoint's high-water mark — through
//! the same `record`/`close_epoch` entry points the live path uses, which is
//! what makes recovered counters bit-identical to an uncrashed run.
//!
//! # On-disk format
//!
//! ```text
//! header   := "CWAL" version:u32 start_seq:u64                (16 bytes)
//! record   := len:u32 checksum:u64 payload[len]
//! payload  := seq:u64 kind:u8 body
//! body     := kind 0x01 (rating)      rater:u64 ratee:u64 value:u8 time:u64
//!           | kind 0x02 (epoch close) forced:u8
//!           | kind 0x03 (stream session) session:u64 frame_seq:u64 accepted:u64
//! ```
//!
//! All integers little-endian; `checksum` is [`crate::codec::fnv64`] over
//! `payload`. Sequence numbers increase by exactly 1 per record, so replay
//! can detect splices as well as tears.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a record whose length prefix, payload or
//! checksum is incomplete or wrong. The scan stops at the *first* record
//! that fails any validation, reports everything before it, and records how
//! many bytes were discarded — recovery then physically truncates the file to
//! the valid prefix ([`Wal::open_with`] does this) and resumes appending.
//! Corruption is data, not a programming error: nothing in this module
//! panics on malformed input (fuzzed in `tests/durability_props.rs`).
//!
//! There is one record loop and it is a visitor: recovery
//! ([`Wal::open_with`]) reads the file a chunk at a time and folds each
//! record as it is decoded, holding neither the file image nor the decoded
//! log. [`scan_bytes`] is the same loop over bytes already in memory;
//! [`replay_bytes`] and [`Wal::open_existing`] collect what it visits into
//! a [`WalReplay`], for tests and harnesses.
//!
//! # Group commit
//!
//! Under [`SyncPolicy::Async`] a committer thread owns both the fsyncs and
//! the max-delay clock, so the append path is an encode, a length compare
//! and one atomic load (see [`Wal::enable_group_commit`]). The durable
//! watermark ([`Wal::durable_len`]) moves only on a *successful*
//! `sync_data`: a failed one is latched and re-raised at the next barrier,
//! and never makes unsynced bytes read as durable.

use crate::codec::{fnv64, ByteReader, ByteWriter, CodecError};
use crate::id::{NodeId, SimTime};
use crate::rating::{Rating, RatingValue};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File magic: "CWAL".
const WAL_MAGIC: [u8; 4] = *b"CWAL";
/// Format version.
const WAL_VERSION: u32 = 1;
/// Header size in bytes (magic + version + start_seq).
const WAL_HEADER_LEN: usize = 16;
/// Record tag: one rating.
const KIND_RATING: u8 = 0x01;
/// Record tag: epoch close marker.
const KIND_EPOCH_CLOSE: u8 = 0x02;
/// Record tag: stream-session watermark marker.
const KIND_STREAM_SESSION: u8 = 0x03;
/// Upper bound on a sane record payload; anything larger is treated as a
/// torn/corrupt length prefix. The largest legal payload (a rating) is
/// 34 bytes, so this is generous headroom for future record kinds.
const MAX_PAYLOAD_LEN: u32 = 4096;
/// Largest record the scanner accepts: length prefix, checksum, payload.
const MAX_RECORD_LEN: usize = 12 + MAX_PAYLOAD_LEN as usize;
/// How much of a log [`Wal::open_with`] holds at a time.
const SCAN_CHUNK: usize = 1 << 20;
/// Largest encoded payload the live writer produces (a rating record:
/// seq 8 + kind 1 + rater 8 + ratee 8 + value 1 + time 8).
const MAX_LIVE_PAYLOAD: usize = 34;
/// Appends encode into an in-memory buffer; once it holds this many bytes
/// it is written to the OS in one `write(2)`. Bounds writer memory while
/// amortizing the syscall over thousands of records.
const WRITE_BUF_FLUSH: usize = 256 * 1024;

/// When WAL appends are forced to stable storage.
///
/// The WAL itself only buffers ([`Wal::append`] reaches the OS page cache,
/// [`Wal::sync`] makes it durable); callers consult a `SyncPolicy` to decide
/// *when* to sync. Epoch-close markers always sync regardless of policy —
/// epoch boundaries are the recovery anchors and must never be lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record: zero loss window, one fsync per append.
    PerRecord,
    /// Sync once at least `k` records are pending (`k ≥ 1`; 0 behaves as
    /// 1). Batched appends count whole batches, so a batch larger than `k`
    /// still costs a single fsync — the group-commit case.
    EveryK(u64),
    /// Asynchronous group commit: a dedicated committer thread fsyncs in
    /// the background whenever `max_bytes` of encoded records accumulate
    /// or `max_delay_micros` pass since the oldest uncommitted append,
    /// whichever comes first — so the append path never blocks on fsync.
    /// [`Wal::sync`] (epoch closes, checkpoints, shutdown) becomes a
    /// barrier that waits for the committer to confirm durability.
    /// Enable with [`Wal::enable_group_commit`].
    Async {
        /// Commit once this many encoded bytes are pending (0 behaves as
        /// 1: every flush requests a commit).
        max_bytes: u32,
        /// Commit at the first append after the oldest pending one is
        /// this old (the committer keeps the clock, so add at most one
        /// in-flight fsync; 0: every append commits).
        max_delay_micros: u32,
    },
}

impl SyncPolicy {
    /// The historical default: group-fsync every 64 appends.
    pub const DEFAULT: SyncPolicy = SyncPolicy::EveryK(64);

    /// Default asynchronous group commit: flush at 256 KiB of encoded
    /// records or 2 ms of latency, whichever first.
    pub const ASYNC_DEFAULT: SyncPolicy =
        SyncPolicy::Async { max_bytes: WRITE_BUF_FLUSH as u32, max_delay_micros: 2_000 };

    /// Whether `pending` un-synced appends require a sync now.
    ///
    /// `Async` never comes due: the committer thread owns the fsync
    /// schedule, callers only issue barriers via [`Wal::sync`].
    #[inline]
    pub fn due(self, pending: u64) -> bool {
        match self {
            SyncPolicy::PerRecord => pending > 0,
            SyncPolicy::EveryK(k) => pending >= k.max(1),
            SyncPolicy::Async { .. } => false,
        }
    }
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::DEFAULT
    }
}

/// One logical WAL entry, decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A rating accepted into the current epoch.
    Rating(Rating),
    /// The engine closed an epoch here. `forced` marks a close triggered by
    /// the epoch-buffer memory watermark rather than the caller's schedule.
    EpochClose {
        /// Whether the watermark forced this close.
        forced: bool,
    },
    /// A resumable insert-stream frame committed here: every rating of
    /// frame `frame_seq` of session `session` precedes this marker, so a
    /// replayed WAL rebuilds the per-session durable watermark exactly.
    StreamSession {
        /// Client-chosen session id (never 0 on disk).
        session: u64,
        /// 1-based frame number the marker seals.
        frame_seq: u64,
        /// Cumulative ratings accepted for the session through this frame.
        accepted: u64,
    },
}

/// Errors from WAL file operations. Decode problems inside the record stream
/// are *not* errors — they terminate replay and are reported in
/// [`WalReplay`] instead.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem I/O failed.
    Io(io::Error),
    /// The file header is missing, truncated, or from a different format.
    BadHeader,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadHeader => write!(f, "WAL header missing or invalid"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What a scan of a WAL byte stream found, besides the records it handed
/// to its visitor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// Bytes after the valid prefix that were discarded as torn/corrupt.
    pub truncated_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<CodecError>,
    /// Sequence number the next append should use.
    pub next_seq: u64,
}

/// Result of scanning a WAL byte stream: the valid prefix, decoded and
/// collected ([`scan_bytes`] is the same scan without the collection).
#[derive(Clone, Debug, Default)]
pub struct WalReplay {
    /// Decoded records of the valid prefix, in append order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// Bytes after the valid prefix that were discarded as torn/corrupt.
    pub truncated_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<CodecError>,
    /// Sequence number the next append should use.
    pub next_seq: u64,
}

impl WalReplay {
    /// Whether the scan hit a torn or corrupt record.
    pub fn is_truncated(&self) -> bool {
        self.truncated_bytes > 0
    }

    fn collected(records: Vec<(u64, WalRecord)>, scan: WalScan) -> Self {
        WalReplay {
            records,
            valid_len: scan.valid_len,
            truncated_bytes: scan.truncated_bytes,
            corruption: scan.corruption,
            next_seq: scan.next_seq,
        }
    }
}

/// Encode one record (frame + checksum + payload) by appending to `out`.
/// Allocation-free in steady state: the payload stages through a stack
/// array and `out` is a reusable buffer that only grows until its
/// high-water mark. The byte layout is pinned by
/// `batched_appends_replay_identically_to_looped_appends`.
fn encode_record_into(seq: u64, record: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = [0u8; MAX_LIVE_PAYLOAD];
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    let mut n = 8;
    match record {
        WalRecord::Rating(r) => {
            payload[n] = KIND_RATING;
            payload[n + 1..n + 9].copy_from_slice(&r.rater.raw().to_le_bytes());
            payload[n + 9..n + 17].copy_from_slice(&r.ratee.raw().to_le_bytes());
            payload[n + 17] = match r.value {
                RatingValue::Negative => 0,
                RatingValue::Neutral => 1,
                RatingValue::Positive => 2,
            };
            payload[n + 18..n + 26].copy_from_slice(&r.time.raw().to_le_bytes());
            n += 26;
        }
        WalRecord::EpochClose { forced } => {
            payload[n] = KIND_EPOCH_CLOSE;
            payload[n + 1] = u8::from(*forced);
            n += 2;
        }
        WalRecord::StreamSession { session, frame_seq, accepted } => {
            payload[n] = KIND_STREAM_SESSION;
            payload[n + 1..n + 9].copy_from_slice(&session.to_le_bytes());
            payload[n + 9..n + 17].copy_from_slice(&frame_seq.to_le_bytes());
            payload[n + 17..n + 25].copy_from_slice(&accepted.to_le_bytes());
            n += 25;
        }
    }
    let payload = &payload[..n];
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

#[cfg(test)]
fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_LIVE_PAYLOAD + 12);
    encode_record_into(seq, record, &mut out);
    out
}

fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord), CodecError> {
    let mut r = ByteReader::new(payload);
    let seq = r.get_u64()?;
    let kind = r.get_u8()?;
    let record = match kind {
        KIND_RATING => {
            let rater = NodeId(r.get_u64()?);
            let ratee = NodeId(r.get_u64()?);
            let value = match r.get_u8()? {
                0 => RatingValue::Negative,
                1 => RatingValue::Neutral,
                2 => RatingValue::Positive,
                t => return Err(CodecError::InvalidTag(t)),
            };
            let time = SimTime(r.get_u64()?);
            WalRecord::Rating(Rating::new(rater, ratee, value, time))
        }
        KIND_EPOCH_CLOSE => {
            let forced = match r.get_u8()? {
                0 => false,
                1 => true,
                t => return Err(CodecError::InvalidTag(t)),
            };
            WalRecord::EpochClose { forced }
        }
        KIND_STREAM_SESSION => WalRecord::StreamSession {
            session: r.get_u64()?,
            frame_seq: r.get_u64()?,
            accepted: r.get_u64()?,
        },
        t => return Err(CodecError::InvalidTag(t)),
    };
    if !r.is_exhausted() {
        return Err(CodecError::BadLength);
    }
    Ok((seq, record))
}

/// Validate a WAL file header; returns its `start_seq`.
fn parse_header(header: &[u8]) -> Result<u64, WalError> {
    let mut hdr = ByteReader::new(header);
    let magic = hdr.get_bytes(4).map_err(|_| WalError::BadHeader)?;
    let version = hdr.get_u32().map_err(|_| WalError::BadHeader)?;
    if magic != WAL_MAGIC || version != WAL_VERSION {
        return Err(WalError::BadHeader);
    }
    hdr.get_u64().map_err(|_| WalError::BadHeader)
}

/// The one record loop of this format: decode records from the front of
/// `bytes` (no file header), handing each to `visit`, until the bytes run
/// out or a record fails validation. Records must carry consecutive
/// sequence numbers from `*expect_seq`, which is advanced past every
/// record visited. Returns the bytes consumed and why the scan stopped
/// short of the end, if it did. Never panics.
fn scan_records(
    bytes: &[u8],
    expect_seq: &mut u64,
    visit: &mut impl FnMut(u64, WalRecord),
) -> (usize, Option<CodecError>) {
    let mut pos = 0;
    while pos < bytes.len() {
        let mut frame = ByteReader::new(&bytes[pos..]);
        let outcome = (|| -> Result<(usize, u64, WalRecord), CodecError> {
            let len = frame.get_u32()?;
            if len > MAX_PAYLOAD_LEN {
                return Err(CodecError::BadLength);
            }
            let checksum = frame.get_u64()?;
            let payload = frame.get_bytes(len as usize)?;
            if fnv64(payload) != checksum {
                return Err(CodecError::ChecksumMismatch);
            }
            let (seq, record) = decode_payload(payload)?;
            Ok((frame.pos(), seq, record))
        })();
        match outcome {
            Ok((consumed, seq, record)) if seq == *expect_seq => {
                pos += consumed;
                *expect_seq += 1;
                visit(seq, record);
            }
            // a gap or repeat in the sequence is corruption at that point
            Ok(_) => return (pos, Some(CodecError::BadLength)),
            Err(e) => return (pos, Some(e)),
        }
    }
    (pos, None)
}

/// Scan raw WAL bytes (header included), handing each record of the valid
/// prefix to `visit` as it is decoded.
///
/// Never panics: any malformed region simply ends the scan. Records must
/// carry consecutive sequence numbers starting from the header's
/// `start_seq`; a gap or repeat is treated as corruption at that point.
pub fn scan_bytes(
    bytes: &[u8],
    mut visit: impl FnMut(u64, WalRecord),
) -> Result<WalScan, WalError> {
    let (header, records) = bytes.split_at_checked(WAL_HEADER_LEN).ok_or(WalError::BadHeader)?;
    let mut next_seq = parse_header(header)?;
    let (consumed, corruption) = scan_records(records, &mut next_seq, &mut visit);
    Ok(WalScan {
        valid_len: (WAL_HEADER_LEN + consumed) as u64,
        truncated_bytes: (records.len() - consumed) as u64,
        corruption,
        next_seq,
    })
}

/// [`scan_bytes`] over a file read `chunk` bytes at a time from its start,
/// so a log of any length is scanned in constant memory: the same record
/// loop runs over a window that is refilled as it drains. A record that
/// fails at the window's edge is retried with more bytes behind it; the
/// failure stands once the file has ended or the window holds a whole
/// largest-possible record, which is all the record loop can look at —
/// so the result is exactly what [`scan_bytes`] returns for the file's
/// bytes.
fn scan_file(
    file: &mut File,
    chunk: usize,
    mut visit: impl FnMut(u64, WalRecord),
) -> Result<WalScan, WalError> {
    let file_len = file.seek(SeekFrom::End(0))?;
    if file_len < WAL_HEADER_LEN as u64 {
        return Err(WalError::BadHeader);
    }
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; WAL_HEADER_LEN];
    file.read_exact(&mut header)?;
    let mut next_seq = parse_header(&header)?;

    let mut valid_len = WAL_HEADER_LEN as u64;
    let mut window = Vec::with_capacity(chunk + MAX_RECORD_LEN);
    let mut ended = false;
    let corruption = loop {
        if !ended {
            ended = (&mut *file).take(chunk as u64).read_to_end(&mut window)? < chunk;
        }
        let (consumed, stop) = scan_records(&window, &mut next_seq, &mut visit);
        valid_len += consumed as u64;
        window.drain(..consumed);
        match stop {
            None if ended => break None,
            Some(e) if ended || window.len() >= MAX_RECORD_LEN => break Some(e),
            _ => {}
        }
    };
    Ok(WalScan { valid_len, truncated_bytes: file_len - valid_len, corruption, next_seq })
}

/// [`scan_bytes`], collecting the records.
pub fn replay_bytes(bytes: &[u8]) -> Result<WalReplay, WalError> {
    let mut records = Vec::new();
    let scan = scan_bytes(bytes, |seq, record| records.push((seq, record)))?;
    Ok(WalReplay::collected(records, scan))
}

/// Message to the asynchronous committer thread.
enum CommitMsg {
    /// The first append since the last hand-over: start the max-delay
    /// clock. The number identifies the arm (see [`CommitShared::overdue`]).
    Arm(u64),
    /// A hand-over: make the file durable up to this logical byte length.
    /// Whatever clock was running is moot.
    Commit(u64),
    /// Final commit, then exit.
    Shutdown,
}

/// State shared between the writer and its committer thread.
#[derive(Debug, Default)]
struct CommitProgress {
    /// Logical byte length confirmed durable by a *successful*
    /// `sync_data` — what stream acks are released against, so a failed
    /// fsync must never move it.
    durable_len: u64,
    /// Fsyncs the committer has issued.
    fsyncs: u64,
    /// First I/O failure, latched; surfaced at the next barrier.
    failed: Option<String>,
}

impl CommitProgress {
    /// Account one `sync_data` that was asked to cover `target`. Success
    /// advances the watermark; failure latches the error and leaves the
    /// watermark where the last successful fsync put it — waiters leave on
    /// `failed`, not on a watermark that would call never-synced bytes
    /// durable.
    fn publish(&mut self, target: u64, res: io::Result<()>) {
        self.fsyncs += 1;
        match res {
            Ok(()) => self.durable_len = self.durable_len.max(target),
            Err(e) => {
                self.failed.get_or_insert_with(|| e.to_string());
            }
        }
    }
}

#[derive(Debug)]
struct CommitShared {
    progress: Mutex<CommitProgress>,
    cv: Condvar,
    /// Number of the newest [`CommitMsg::Arm`] whose max-delay ran out
    /// before a hand-over superseded it. The writer compares it with the
    /// arm it has out, so a clock that fires late, after its hand-over,
    /// is not mistaken for the next one. `Relaxed` on both sides: the
    /// number is the whole message, it publishes no other memory.
    overdue: AtomicU64,
}

/// Handle to the committer thread (see [`Wal::enable_group_commit`]).
#[derive(Debug)]
struct Committer {
    tx: Sender<CommitMsg>,
    shared: Arc<CommitShared>,
    join: Option<JoinHandle<()>>,
    /// Hand over once the encode buffer holds this many bytes (1 when
    /// `max_delay_micros` is 0: every append hands over).
    max_bytes: usize,
    /// Arms sent so far; while `armed`, the number of the one that is out.
    arms: u64,
    /// Whether the committer is timing the bytes appended since the last
    /// hand-over.
    armed: bool,
}

/// The committer loop: drain the channel (coalescing a burst of commit
/// requests into the highest requested length — one fsync covers them
/// all), `sync_data`, publish the new durable watermark. It also keeps the
/// max-delay clock: while an arm is out it waits for its next message only
/// until `armed + max_delay`, and raises [`CommitShared::overdue`] when
/// that passes, so the append path never reads a clock. An arm that
/// arrives while a `sync_data` is in flight starts its clock when that
/// returns. Never panics on I/O failure; the error is latched and
/// re-raised at the writer's next barrier.
fn committer_loop(
    file: File,
    rx: Receiver<CommitMsg>,
    shared: Arc<CommitShared>,
    max_delay: Duration,
) {
    let mut target = 0u64;
    let mut clock: Option<(Instant, u64)> = None;
    let mut shutdown = false;
    while !shutdown {
        let first = match clock {
            None => rx.recv().unwrap_or(CommitMsg::Shutdown),
            Some((due, arm)) => {
                match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        shared.overdue.store(arm, Ordering::Relaxed);
                        clock = None;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => CommitMsg::Shutdown,
                }
            }
        };
        for msg in std::iter::once(first).chain(rx.try_iter()) {
            match msg {
                CommitMsg::Arm(arm) => clock = Some((Instant::now() + max_delay, arm)),
                CommitMsg::Commit(len) => {
                    target = target.max(len);
                    clock = None;
                }
                CommitMsg::Shutdown => shutdown = true,
            }
        }
        let durable = shared.progress.lock().map(|p| p.durable_len).unwrap_or(u64::MAX);
        if target > durable {
            let res = file.sync_data();
            if let Ok(mut p) = shared.progress.lock() {
                p.publish(target, res);
            }
            shared.cv.notify_all();
        }
    }
}

/// Detached wait handle on a group-commit committer's durable watermark
/// (see [`Wal::waiter`]). Holds only the committer's progress state, so
/// waiting does not block appends or other readers of the `Wal`.
#[derive(Debug)]
pub struct DurableWaiter {
    shared: Arc<CommitShared>,
}

impl DurableWaiter {
    /// Block until the durable watermark covers `target`, the committer
    /// latches an I/O failure, or `timeout` elapses. Returns whether the
    /// watermark covers `target` (a latched failure reads as `false`; the
    /// caller's next blocking [`Wal::sync`] re-raises it).
    pub fn wait_covered(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let Ok(mut p) = self.shared.progress.lock() else { return false };
        while p.durable_len < target && p.failed.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let Ok((next, _)) = self.shared.cv.wait_timeout(p, deadline - now) else {
                return false;
            };
            p = next;
        }
        p.durable_len >= target
    }
}

/// An append-only write-ahead log file.
///
/// Appends encode into an internal buffer that is written to the OS in
/// `WRITE_BUF_FLUSH`-sized chunks; [`Wal::sync`] flushes and makes
/// everything durable. Callers schedule syncs via [`SyncPolicy`] (per
/// record, every k records, or group commit at epoch closes) and always
/// sync before a checkpoint. [`Wal::enable_group_commit`] additionally
/// moves fsyncs to a background committer thread with bounded-latency
/// batching — the [`SyncPolicy::Async`] mode.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Logical length: header + every encoded record, including bytes
    /// still in `buf`.
    len: u64,
    /// Byte span `[start, end)` of the most recent append, for crash-injection
    /// harnesses that tear the final record.
    last_record_span: (u64, u64),
    /// Encoded-but-unwritten records (reused; never shrinks).
    buf: Vec<u8>,
    /// Logical byte length confirmed durable by a synchronous fsync
    /// ([`Wal::sync`] without a committer). With group commit on, the
    /// committer's progress supersedes this — see [`Wal::durable_len`].
    synced_len: u64,
    /// Committer thread and hand-over triggers, when async mode is on.
    committer: Option<Committer>,
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating any existing file), with
    /// sequence numbers starting at `start_seq`.
    pub fn create(path: &Path, start_seq: u64) -> Result<Self, WalError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut hdr = ByteWriter::with_capacity(WAL_HEADER_LEN);
        hdr.put_bytes(&WAL_MAGIC);
        hdr.put_u32(WAL_VERSION);
        hdr.put_u64(start_seq);
        file.write_all(hdr.as_bytes())?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            next_seq: start_seq,
            len: WAL_HEADER_LEN as u64,
            last_record_span: (WAL_HEADER_LEN as u64, WAL_HEADER_LEN as u64),
            buf: Vec::new(),
            synced_len: WAL_HEADER_LEN as u64,
            committer: None,
        })
    }

    /// Open an existing WAL, replaying it first. The file is truncated to its
    /// valid prefix (dropping any torn tail) and positioned for appending.
    /// Returns the writer plus the replay of the surviving records.
    pub fn open_existing(path: &Path) -> Result<(Self, WalReplay), WalError> {
        let mut records = Vec::new();
        let (wal, scan) = Wal::open_with(path, |seq, record| records.push((seq, record)))?;
        Ok((wal, WalReplay::collected(records, scan)))
    }

    /// [`Wal::open_existing`] without the collection: each surviving
    /// record goes to `visit` as it is decoded, and the file is read a
    /// chunk at a time, so opening a log of any length holds neither its
    /// image nor its decoded records.
    pub fn open_with(
        path: &Path,
        visit: impl FnMut(u64, WalRecord),
    ) -> Result<(Self, WalScan), WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let scan = scan_file(&mut file, SCAN_CHUNK, visit)?;
        if scan.truncated_bytes > 0 {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            next_seq: scan.next_seq,
            len: scan.valid_len,
            last_record_span: (scan.valid_len, scan.valid_len),
            buf: Vec::new(),
            synced_len: scan.valid_len,
            committer: None,
        };
        Ok((wal, scan))
    }

    /// Switch to asynchronous group commit ([`SyncPolicy::Async`]): spawn
    /// a committer thread over a clone of the file handle. From here on an
    /// append *hands over* — writes the encode buffer to the OS and asks
    /// the committer to fsync it in the background — whenever `max_bytes`
    /// have accumulated, or at the first append after the bytes pending
    /// since the last hand-over became `max_delay_micros` old;
    /// [`Wal::sync`] becomes a barrier that waits for the durable
    /// watermark to catch up. The byte stream written is identical to
    /// synchronous mode — replay cannot tell which mode produced a log.
    ///
    /// The committer keeps the max-delay clock (see `committer_loop`), so
    /// an append costs an encode, a length compare and one atomic load —
    /// no clock, lock or syscall until a hand-over is due. The age bound
    /// is therefore `max_delay_micros` plus at most one in-flight
    /// `sync_data`, and as ever it is checked *by an append*: a writer
    /// that falls silent hands its tail over at the next
    /// [`Wal::request_durable`] or [`Wal::sync`]. `max_delay_micros = 0`
    /// hands over on every append.
    pub fn enable_group_commit(
        &mut self,
        max_bytes: u32,
        max_delay_micros: u32,
    ) -> Result<(), WalError> {
        if self.committer.is_some() {
            return Ok(());
        }
        let file = self.file.try_clone()?;
        let shared = Arc::new(CommitShared {
            progress: Mutex::new(CommitProgress {
                durable_len: self.os_len(),
                ..Default::default()
            }),
            cv: Condvar::new(),
            overdue: AtomicU64::new(0),
        });
        let (tx, rx) = channel();
        let loop_shared = Arc::clone(&shared);
        let max_delay = Duration::from_micros(max_delay_micros as u64);
        let join = std::thread::spawn(move || committer_loop(file, rx, loop_shared, max_delay));
        self.committer = Some(Committer {
            tx,
            shared,
            join: Some(join),
            max_bytes: if max_delay_micros == 0 { 1 } else { (max_bytes as usize).max(1) },
            arms: 0,
            armed: false,
        });
        Ok(())
    }

    /// Bytes written to the OS so far (logical length minus the encode
    /// buffer's backlog).
    #[inline]
    fn os_len(&self) -> u64 {
        self.len - self.buf.len() as u64
    }

    /// Write the encode buffer to the OS (no fsync) and clear it.
    fn flush_os(&mut self) -> Result<(), WalError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Hand over: write the encode buffer to the OS and ask the committer
    /// to make everything so far durable (non-blocking). Disarms the
    /// max-delay clock; the next append arms it again.
    fn request_commit(&mut self) -> Result<(), WalError> {
        self.flush_os()?;
        if let Some(c) = &mut self.committer {
            let _ = c.tx.send(CommitMsg::Commit(self.len));
            c.armed = false;
        }
        Ok(())
    }

    /// Post-append bookkeeping: flush the encode buffer when it is full;
    /// in group-commit mode hand over when the max-bytes trigger fires or
    /// the committer reports the armed clock overdue, and arm the clock on
    /// the first append after a hand-over.
    #[inline]
    fn after_append(&mut self) -> Result<(), WalError> {
        match &mut self.committer {
            None => {
                if self.buf.len() >= WRITE_BUF_FLUSH {
                    self.flush_os()?;
                }
            }
            Some(c) => {
                if self.buf.len() >= c.max_bytes
                    || (c.armed && c.shared.overdue.load(Ordering::Relaxed) == c.arms)
                {
                    self.request_commit()?;
                } else if !c.armed {
                    c.armed = true;
                    c.arms += 1;
                    let _ = c.tx.send(CommitMsg::Arm(c.arms));
                }
            }
        }
        Ok(())
    }

    /// Encode one record into the buffer and advance the bookkeeping.
    #[inline]
    fn encode_append(&mut self, record: &WalRecord) -> u64 {
        let seq = self.next_seq;
        let before = self.buf.len();
        encode_record_into(seq, record, &mut self.buf);
        let encoded = (self.buf.len() - before) as u64;
        self.last_record_span = (self.len, self.len + encoded);
        self.len += encoded;
        self.next_seq += 1;
        seq
    }

    /// Append one record, returning its sequence number. The bytes are
    /// buffered (reaching the OS at the next flush boundary) and only
    /// crash-durable after [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        let seq = self.encode_append(record);
        self.after_append()?;
        Ok(seq)
    }

    /// Append a batch of rating records, returning the sequence-number
    /// range `[start, end)` they occupy. Encoding is record-for-record
    /// identical to looping [`Wal::append`] — replay cannot tell the
    /// difference — but the whole batch shares the encode buffer's flush
    /// cadence, so a batch costs at most one `write(2)` per
    /// `WRITE_BUF_FLUSH` bytes.
    pub fn append_ratings(&mut self, ratings: &[Rating]) -> Result<(u64, u64), WalError> {
        let start = self.next_seq;
        for &r in ratings {
            self.encode_append(&WalRecord::Rating(r));
            self.after_append()?;
        }
        Ok((start, self.next_seq))
    }

    /// Force appended records to stable storage (group fsync point). In
    /// group-commit mode this is the barrier: it hands the backlog to the
    /// committer and blocks until the durable watermark covers every
    /// append so far (re-raising any latched committer I/O error).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.request_commit()?;
        match &self.committer {
            None => {
                self.file.sync_data()?;
                self.synced_len = self.len;
            }
            Some(c) => {
                let target = self.len;
                let mut progress = c.shared.progress.lock().expect("WAL committer mutex poisoned");
                while progress.durable_len < target && progress.failed.is_none() {
                    progress = c.shared.cv.wait(progress).expect("WAL committer mutex poisoned");
                }
                if let Some(msg) = progress.failed.take() {
                    return Err(WalError::Io(io::Error::other(msg)));
                }
            }
        }
        Ok(())
    }

    /// Write buffered encodes to the OS without forcing durability, so
    /// readers of [`Wal::path`] observe every append so far. Crash
    /// durability still requires [`Wal::sync`].
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.flush_os()
    }

    /// Logical byte length confirmed durable — the **durable watermark**
    /// the streaming data plane acks against. With group commit on, this
    /// is the committer thread's confirmed progress; in synchronous modes
    /// it is the length as of the last [`Wal::sync`]. Monotone, and always
    /// ≤ [`Wal::len_bytes`].
    pub fn durable_len(&self) -> u64 {
        match &self.committer {
            Some(c) => c
                .shared
                .progress
                .lock()
                .map(|p| p.durable_len.max(self.synced_len))
                .unwrap_or(self.synced_len),
            None => self.synced_len,
        }
    }

    /// Non-blocking durability nudge: hand everything appended so far to
    /// the background committer so the durable watermark catches up soon
    /// without stalling the append path. A no-op without group commit —
    /// synchronous policies advance the watermark in [`Wal::sync`].
    pub fn request_durable(&mut self) -> Result<(), WalError> {
        if self.committer.is_some() {
            self.request_commit()?;
        }
        Ok(())
    }

    /// A handle for blocking on the committer's durable watermark without
    /// holding any lock on the `Wal` itself (`None` without group commit).
    /// Lets an ack path park on the committer's condvar — woken the
    /// instant an fsync completes — while other threads keep appending.
    pub fn waiter(&self) -> Option<DurableWaiter> {
        self.committer.as_ref().map(|c| DurableWaiter { shared: Arc::clone(&c.shared) })
    }

    /// Fsyncs issued by the background committer (0 without group commit).
    pub fn committer_fsyncs(&self) -> u64 {
        self.committer
            .as_ref()
            .and_then(|c| c.shared.progress.lock().ok().map(|p| p.fsyncs))
            .unwrap_or(0)
    }

    /// Sequence number the next append will use.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current file length in bytes.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte span `[start, end)` of the most recently appended record.
    #[inline]
    pub fn last_record_span(&self) -> (u64, u64) {
        self.last_record_span
    }
}

impl Drop for Wal {
    /// Flush buffered encodes to the OS and retire the committer thread.
    /// Dropping does *not* fsync (matching the synchronous writer's drop
    /// semantics) — durability barriers are explicit [`Wal::sync`] calls.
    fn drop(&mut self) {
        let _ = self.flush_os();
        if let Some(c) = &mut self.committer {
            let _ = c.tx.send(CommitMsg::Shutdown);
            if let Some(join) = c.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "collusion-wal-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn rating(j: u64, i: u64, t: u64) -> Rating {
        Rating::positive(NodeId(j), NodeId(i), SimTime(t))
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let dir = scratch("roundtrip");
        let path = dir.join("test.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        let records = [
            WalRecord::Rating(rating(1, 2, 0)),
            WalRecord::Rating(Rating::negative(NodeId(3), NodeId(2), SimTime(1))),
            WalRecord::EpochClose { forced: false },
            WalRecord::Rating(Rating::neutral(NodeId(4), NodeId(5), SimTime(2))),
            WalRecord::StreamSession { session: 0xDEAD_BEEF, frame_seq: 3, accepted: 768 },
            WalRecord::EpochClose { forced: true },
            WalRecord::StreamSession { session: u64::MAX, frame_seq: u64::MAX, accepted: 0 },
        ];
        for (k, r) in records.iter().enumerate() {
            assert_eq!(wal.append(r).unwrap(), k as u64);
        }
        wal.sync().unwrap();
        let (wal2, replay) = Wal::open_existing(&path).unwrap();
        assert!(!replay.is_truncated());
        assert_eq!(replay.corruption, None);
        assert_eq!(replay.records.len(), records.len());
        for (k, (seq, rec)) in replay.records.iter().enumerate() {
            assert_eq!(*seq, k as u64);
            assert_eq!(rec, &records[k]);
        }
        assert_eq!(wal2.next_seq(), records.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = scratch("torn");
        let path = dir.join("torn.wal");
        let mut wal = Wal::create(&path, 10).unwrap();
        wal.append(&WalRecord::Rating(rating(1, 2, 0))).unwrap();
        wal.append(&WalRecord::Rating(rating(3, 2, 1))).unwrap();
        wal.sync().unwrap();
        let (start, end) = wal.last_record_span();
        drop(wal);
        // tear the final record in half
        let tear_at = start + (end - start) / 2;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(tear_at).unwrap();
        drop(f);

        let (mut wal, replay) = Wal::open_existing(&path).unwrap();
        assert!(replay.is_truncated());
        assert!(replay.corruption.is_some());
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].0, 10);
        assert_eq!(replay.next_seq, 11);
        // appending after truncation continues the sequence cleanly
        assert_eq!(wal.append(&WalRecord::EpochClose { forced: false }).unwrap(), 11);
        wal.sync().unwrap();
        let (_, replay) = Wal::open_existing(&path).unwrap();
        assert!(!replay.is_truncated());
        assert_eq!(replay.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_payload_stops_replay_at_checksum() {
        let dir = scratch("flip");
        let path = dir.join("flip.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append(&WalRecord::Rating(rating(1, 2, 0))).unwrap();
        wal.append(&WalRecord::Rating(rating(3, 2, 1))).unwrap();
        wal.sync().unwrap();
        let (start, _) = wal.last_record_span();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a bit inside the second record's payload
        let idx = start as usize + 14;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.corruption, Some(CodecError::ChecksumMismatch));
        assert!(replay.is_truncated());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_appends_replay_identically_to_looped_appends() {
        let dir = scratch("batch");
        let looped_path = dir.join("looped.wal");
        let batched_path = dir.join("batched.wal");
        let ratings: Vec<Rating> = (0..37).map(|k| rating(k % 5 + 1, k % 7 + 10, k)).collect();
        let mut looped = Wal::create(&looped_path, 3).unwrap();
        for &r in &ratings {
            looped.append(&WalRecord::Rating(r)).unwrap();
        }
        looped.sync().unwrap();
        let mut batched = Wal::create(&batched_path, 3).unwrap();
        let (start, end) = batched.append_ratings(&ratings).unwrap();
        assert_eq!((start, end), (3, 3 + ratings.len() as u64));
        assert_eq!(batched.last_record_span(), looped.last_record_span());
        batched.sync().unwrap();
        assert_eq!(
            std::fs::read(&looped_path).unwrap(),
            std::fs::read(&batched_path).unwrap(),
            "batched encoding must be byte-identical"
        );
        // empty batch: no-op, sequence unchanged
        assert_eq!(batched.append_ratings(&[]).unwrap(), (end, end));
        assert_eq!(batched.next_seq(), end);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_due_semantics() {
        assert!(SyncPolicy::PerRecord.due(1));
        assert!(!SyncPolicy::PerRecord.due(0));
        assert!(!SyncPolicy::EveryK(64).due(63));
        assert!(SyncPolicy::EveryK(64).due(64));
        assert!(SyncPolicy::EveryK(64).due(200));
        assert!(SyncPolicy::EveryK(0).due(1), "k=0 behaves as k=1");
        assert!(!SyncPolicy::ASYNC_DEFAULT.due(u64::MAX), "async never comes due inline");
        assert_eq!(SyncPolicy::default(), SyncPolicy::EveryK(64));
    }

    #[test]
    fn group_commit_stream_is_byte_identical_to_sync_mode() {
        let dir = scratch("group-commit");
        let sync_path = dir.join("sync.wal");
        let async_path = dir.join("async.wal");
        let ratings: Vec<Rating> = (0..500).map(|k| rating(k % 9 + 1, k % 11 + 20, k)).collect();

        let mut plain = Wal::create(&sync_path, 0).unwrap();
        let mut grouped = Wal::create(&async_path, 0).unwrap();
        // tiny max_bytes so the committer is exercised mid-stream, not
        // only at the closing barrier
        grouped.enable_group_commit(512, 1_000_000).unwrap();
        for (k, &r) in ratings.iter().enumerate() {
            plain.append(&WalRecord::Rating(r)).unwrap();
            grouped.append(&WalRecord::Rating(r)).unwrap();
            if k % 100 == 99 {
                plain.append(&WalRecord::EpochClose { forced: false }).unwrap();
                plain.sync().unwrap();
                grouped.append(&WalRecord::EpochClose { forced: false }).unwrap();
                grouped.sync().unwrap();
            }
        }
        assert_eq!(plain.next_seq(), grouped.next_seq());
        assert_eq!(plain.len_bytes(), grouped.len_bytes());
        assert_eq!(plain.last_record_span(), grouped.last_record_span());
        assert!(grouped.committer_fsyncs() > 0, "committer never fsynced");
        drop(plain);
        drop(grouped);
        assert_eq!(
            std::fs::read(&sync_path).unwrap(),
            std::fs::read(&async_path).unwrap(),
            "group-commit byte stream must be identical to synchronous mode"
        );
        let (_, replay) = Wal::open_existing(&async_path).unwrap();
        assert!(!replay.is_truncated());
        assert_eq!(replay.records.len(), 505);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_barrier_makes_tail_durable() {
        let dir = scratch("group-barrier");
        let path = dir.join("barrier.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        // huge thresholds: nothing commits until the explicit barrier
        wal.enable_group_commit(u32::MAX, u32::MAX).unwrap();
        for k in 0..300 {
            wal.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
        }
        let buffered = wal.len_bytes();
        wal.sync().unwrap();
        assert!(wal.committer_fsyncs() >= 1);
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, buffered, "barrier flushed every buffered byte");
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(replay.records.len(), 300);
        assert!(!replay.is_truncated());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_watermark_tracks_sync_in_synchronous_mode() {
        let dir = scratch("watermark-sync");
        let path = dir.join("wm.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64);
        for k in 0..10 {
            wal.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
        }
        // appended but not synced: the watermark must not move
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64);
        assert!(wal.durable_len() < wal.len_bytes());
        wal.request_durable().unwrap(); // no-op without a committer
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64);
        wal.sync().unwrap();
        assert_eq!(wal.durable_len(), wal.len_bytes());
        drop(wal);
        // reopening an intact file resumes the watermark at its length
        let (wal, replay) = Wal::open_existing(&path).unwrap();
        assert!(!replay.is_truncated());
        assert_eq!(wal.durable_len(), wal.len_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_watermark_catches_up_under_group_commit() {
        let dir = scratch("watermark-async");
        let path = dir.join("wm.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        // huge thresholds: only explicit nudges/barriers commit
        wal.enable_group_commit(u32::MAX, u32::MAX).unwrap();
        for k in 0..50 {
            wal.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
        }
        let target = wal.len_bytes();
        wal.request_durable().unwrap();
        // the nudge is async; poll until the committer confirms
        let deadline = Instant::now() + Duration::from_secs(5);
        while wal.durable_len() < target {
            assert!(Instant::now() < deadline, "committer never caught up");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(wal.durable_len(), target);
        // the barrier agrees with the watermark
        wal.append(&WalRecord::EpochClose { forced: false }).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.durable_len(), wal.len_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Poll until `done`, failing the test after five seconds.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn max_delay_hands_over_at_the_first_append_after_it_passes() {
        let dir = scratch("max-delay");
        let mut wal = Wal::create(&dir.join("delay.wal"), 0).unwrap();
        // max_bytes out of reach: only the committer's clock can trigger
        wal.enable_group_commit(u32::MAX, 5_000).unwrap();
        wal.append(&WalRecord::Rating(rating(1, 2, 0))).unwrap();
        let c = wal.committer.as_ref().unwrap();
        assert!(c.armed && c.arms == 1, "the first append arms the clock");
        assert!(!wal.buf.is_empty(), "and stays in the encode buffer");
        let shared = Arc::clone(&c.shared);
        eventually("the committer never raised the flag", || {
            shared.overdue.load(Ordering::Relaxed) == 1
        });
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64, "the flag alone moves nothing");
        wal.append(&WalRecord::Rating(rating(3, 2, 1))).unwrap();
        assert!(wal.buf.is_empty(), "the first append after the delay hands over");
        assert!(!wal.committer.as_ref().unwrap().armed);
        let two_records = wal.len_bytes();
        // no sync, no request_durable: the hand-over alone makes them durable
        eventually("the hand-over was never committed", || wal.durable_len() >= two_records);
        // the next append starts a new arm; the old flag does not fire it
        wal.append(&WalRecord::Rating(rating(4, 2, 2))).unwrap();
        let c = wal.committer.as_ref().unwrap();
        assert!(c.armed && c.arms == 2 && !wal.buf.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreachable_max_delay_waits_for_the_barrier_and_zero_never_waits() {
        let dir = scratch("delay-extremes");
        let mut never = Wal::create(&dir.join("never.wal"), 0).unwrap();
        never.enable_group_commit(u32::MAX, u32::MAX).unwrap();
        let mut always = Wal::create(&dir.join("always.wal"), 0).unwrap();
        always.enable_group_commit(u32::MAX, 0).unwrap();
        for k in 0..20 {
            never.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
            always.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
            assert!(always.buf.is_empty(), "max_delay 0 hands over on every append");
        }
        let target = always.len_bytes();
        eventually("max_delay 0 never became durable", || always.durable_len() >= target);
        assert_eq!(always.committer.as_ref().unwrap().arms, 0, "nothing to time");
        // the same twenty appends, and at least as much time, on the other log
        assert_eq!(never.durable_len(), WAL_HEADER_LEN as u64);
        assert_eq!(never.committer_fsyncs(), 0);
        assert_eq!(never.buf.len() as u64, target - WAL_HEADER_LEN as u64);
        never.sync().unwrap();
        assert_eq!(never.durable_len(), target);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_fsync_leaves_the_watermark_and_fails_the_barrier_once() {
        let dir = scratch("failed-fsync");
        let mut wal = Wal::create(&dir.join("failed.wal"), 0).unwrap();
        wal.enable_group_commit(u32::MAX, u32::MAX).unwrap();
        for k in 0..10 {
            wal.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
        }
        let target = wal.len_bytes();
        let shared = Arc::clone(&wal.committer.as_ref().unwrap().shared);
        // the committer's publish step, fed the error a dying disk returns
        shared.progress.lock().unwrap().publish(target, Err(io::Error::other("EIO")));
        shared.cv.notify_all();
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64, "never-synced bytes read durable");
        let waiter = wal.waiter().unwrap();
        assert!(!waiter.wait_covered(target, Duration::from_secs(5)), "a failure reads false");
        let err = wal.sync().expect_err("the barrier re-raises the latched error");
        assert!(err.to_string().contains("EIO"), "{err}");
        // raised once; the retry's fsync succeeds and the watermark moves again
        wal.sync().unwrap();
        assert_eq!(wal.durable_len(), target);
        assert!(waiter.wait_covered(target, Duration::ZERO));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_file_scan_equals_the_scan_of_its_bytes() {
        let dir = scratch("chunked");
        let path = dir.join("chunked.wal");
        let mut wal = Wal::create(&path, 5).unwrap();
        for k in 0..=300u64 {
            wal.append(&match k % 7 {
                3 => WalRecord::EpochClose { forced: k % 2 == 0 },
                5 => WalRecord::StreamSession { session: k, frame_seq: k / 7, accepted: k },
                _ => WalRecord::Rating(rating(k % 9 + 1, k % 11 + 20, k)),
            })
            .unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let intact = std::fs::read(&path).unwrap();
        assert!(intact.len() > 3 * MAX_RECORD_LEN, "several windows' worth of log");

        let mut variants = vec![intact.clone()];
        for cut in [16, 17, 27, 29, 61, intact.len() / 2, intact.len() - 1] {
            variants.push(intact[..cut].to_vec());
        }
        // the first record's length prefix (still plausible, then not),
        // checksum and payload; then the same damage somewhere mid-log
        for record_at in [WAL_HEADER_LEN, WAL_HEADER_LEN + 46 * 100] {
            for (offset, mask) in [(1, 0x0f), (2, 0x01), (7, 0x80), (20, 0x04)] {
                let mut flipped = intact.clone();
                flipped[record_at + offset] ^= mask;
                variants.push(flipped);
            }
        }
        // the last record (a rating) claims more than is left to read
        let mut overlong = intact.clone();
        let last = overlong.len() - 46;
        overlong[last..last + 4].copy_from_slice(&4000u32.to_le_bytes());
        let replay = replay_bytes(&overlong).unwrap();
        assert_eq!(
            (replay.records.len(), replay.corruption),
            (300, Some(CodecError::UnexpectedEof))
        );
        variants.push(overlong);

        for bytes in variants {
            std::fs::write(&path, &bytes).unwrap();
            let expected = replay_bytes(&bytes).unwrap();
            for chunk in [1, 7, 46, 1000, MAX_RECORD_LEN, 1 << 20] {
                let mut file = File::open(&path).unwrap();
                let mut streamed = Vec::new();
                let scan = scan_file(&mut file, chunk, |seq, r| streamed.push((seq, r))).unwrap();
                assert_eq!(streamed, expected.records, "chunk {chunk}");
                assert_eq!(
                    (scan.valid_len, scan.truncated_bytes, scan.corruption, scan.next_seq),
                    (
                        expected.valid_len,
                        expected.truncated_bytes,
                        expected.corruption,
                        expected.next_seq
                    ),
                    "chunk {chunk}, {} bytes",
                    bytes.len()
                );
            }
        }
        for bad in [&b"CWAL"[..], &[0u8; 40][..]] {
            std::fs::write(&path, bad).unwrap();
            let mut file = File::open(&path).unwrap();
            assert!(matches!(scan_file(&mut file, 8, |_, _| {}), Err(WalError::BadHeader)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_header_is_an_error_not_a_panic() {
        assert!(matches!(replay_bytes(b""), Err(WalError::BadHeader)));
        assert!(matches!(replay_bytes(b"CWALxx"), Err(WalError::BadHeader)));
        let mut bogus = Vec::from(*b"NOPE");
        bogus.extend_from_slice(&[0u8; 12]);
        assert!(matches!(replay_bytes(&bogus), Err(WalError::BadHeader)));
    }

    #[test]
    fn sequence_gap_treated_as_corruption() {
        let mut bytes = {
            let mut hdr = ByteWriter::new();
            hdr.put_bytes(&WAL_MAGIC);
            hdr.put_u32(WAL_VERSION);
            hdr.put_u64(0);
            hdr.into_bytes()
        };
        bytes.extend_from_slice(&encode_record(0, &WalRecord::EpochClose { forced: false }));
        // next record skips seq 1
        bytes.extend_from_slice(&encode_record(2, &WalRecord::EpochClose { forced: false }));
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.is_truncated());
        assert_eq!(replay.next_seq, 1);
    }
}

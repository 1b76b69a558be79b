//! Write-ahead log for epoch ratings.
//!
//! Detection state is a pure fold over the rating stream, so durability
//! reduces to making the stream itself durable: every rating a manager
//! accepts is appended to a WAL *before* it is considered recorded, and an
//! epoch-close marker is appended whenever the detection engine seals an
//! epoch. Crash recovery loads the newest valid checkpoint
//! ([`crate::checkpoint`]) and replays the WAL tail — every entry with a
//! sequence number greater than the checkpoint's high-water mark — through
//! the same `record`/`close_epoch` entry points the live path uses, which is
//! what makes recovered counters bit-identical to an uncrashed run.
//!
//! # On-disk format
//!
//! ```text
//! header   := "CWAL" version:u32 start_seq:u64                (16 bytes)
//! record   := len:u32 checksum:u64 payload[len]
//! payload  := first_seq:u64 entry+
//! entry    := kind 0x01 (rating)         rater:u64 ratee:u64 value:u8 time:u64
//!           | kind 0x02 (epoch close)    forced:u8
//!           | kind 0x03 (stream session) session:u64 frame_seq:u64 accepted:u64
//! ```
//!
//! All integers little-endian; `checksum` is [`crate::codec::fnv64`] over
//! `payload`. A record holds one durable operation — a *unit*: one rating,
//! a stream frame's ratings plus its session marker, an epoch-close marker,
//! and a watermark-forced close marker in the same record as the ratings
//! that forced it ([`Wal::append_unit`]). Entries are numbered
//! consecutively from `first_seq`, and sequence numbers increase by exactly
//! 1 per entry across records, so replay can detect splices as well as
//! tears, and a checkpoint cursor names an entry.
//!
//! Version 2 is this format. A version-1 record held exactly one entry and
//! is byte for byte a one-entry version-2 record, so the scanner reads both
//! headers and [`Wal::open_with`] rewrites a version-1 header to 2 before
//! appending; the bump is what makes an older binary refuse a log holding
//! multi-entry records instead of truncating them as torn.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a record whose length prefix, payload or
//! checksum is incomplete or wrong. The scan stops at the *first* record
//! that fails any validation, reports everything before it, and records how
//! many bytes were discarded — recovery then physically truncates the file to
//! the valid prefix ([`Wal::open_with`] does this) and resumes appending.
//! Every entry of a record is validated before the first is visited, so a
//! unit is replayed whole or not at all.
//! Corruption is data, not a programming error: nothing in this module
//! panics on malformed input (fuzzed in `tests/durability_props.rs`).
//!
//! There is one record loop and it is a visitor: recovery
//! ([`Wal::open_with`]) reads the file a chunk at a time and folds each
//! entry as it is decoded, holding neither the file image nor the decoded
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
//! `sync_data`, and never makes unsynced bytes read as durable.
//!
//! # Poisoning
//!
//! The first failed `write(2)` or `sync_data` poisons the log: every later
//! append, hand-over and barrier fails with [`WalError::Poisoned`], and
//! dropping it writes nothing more. After a failed fsync the kernel may
//! have dropped the dirty pages and cleared the error, so a retry that
//! succeeds proves nothing about the bytes
//! (<https://wiki.postgresql.org/wiki/Fsync_Errors>); the only safe way
//! back is to reopen the file and replay what it holds.

use crate::codec::{fnv64, ByteReader, ByteWriter, CodecError};
use crate::frame::MAX_FRAME_PAYLOAD;
use crate::id::{NodeId, SimTime};
use crate::rating::{Rating, RatingValue};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File magic: "CWAL".
const WAL_MAGIC: [u8; 4] = *b"CWAL";
/// Format version written by this build (see the module docs for 1 → 2).
const WAL_VERSION: u32 = 2;
/// Header size in bytes (magic + version + start_seq).
const WAL_HEADER_LEN: usize = 16;
/// Entry tag: one rating.
const KIND_RATING: u8 = 0x01;
/// Entry tag: epoch close marker.
const KIND_EPOCH_CLOSE: u8 = 0x02;
/// Entry tag: stream-session watermark marker.
const KIND_STREAM_SESSION: u8 = 0x03;
/// Encoded size of a rating entry (kind, two ids, value, time).
const RATING_ENTRY_LEN: usize = 26;
/// Encoded size of a stream-session entry (kind, three `u64`s).
const SESSION_ENTRY_LEN: usize = 25;
/// Encoded size of an epoch-close entry (kind, flag).
const CLOSE_ENTRY_LEN: usize = 2;
/// Smallest wire encoding of a rating in a stream frame (two ids, a value
/// tag, a time).
const WIRE_RATING_LEN: usize = 25;
/// Most ratings one unit may hold: every rating a largest legal stream
/// frame ([`MAX_FRAME_PAYLOAD`]) can carry. Longer slices go through
/// [`Wal::append_ratings`], which splits them.
pub const MAX_UNIT_RATINGS: usize = MAX_FRAME_PAYLOAD as usize / WIRE_RATING_LEN;
/// Upper bound on a record payload: the largest legal unit, a full frame's
/// ratings plus its session marker and a forced close marker. Anything
/// larger is a torn or corrupt length prefix.
const MAX_PAYLOAD_LEN: u32 =
    (8 + MAX_UNIT_RATINGS * RATING_ENTRY_LEN + SESSION_ENTRY_LEN + CLOSE_ENTRY_LEN) as u32;
/// Largest record the scanner accepts: length prefix, checksum, payload.
const MAX_RECORD_LEN: usize = 12 + MAX_PAYLOAD_LEN as usize;
/// How much of a log [`Wal::open_with`] holds at a time.
const SCAN_CHUNK: usize = 1 << 20;
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
    /// Default asynchronous group commit: flush at 256 KiB of encoded
    /// records or 2 ms of latency, whichever first.
    pub const ASYNC_DEFAULT: SyncPolicy =
        SyncPolicy::Async { max_bytes: WRITE_BUF_FLUSH as u32, max_delay_micros: 2_000 };
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
    /// An earlier `write(2)` or `sync_data` failed: the log accepts nothing
    /// more until it is reopened (see the module docs on poisoning).
    Poisoned,
    /// A unit larger than the largest legal record ([`MAX_UNIT_RATINGS`]
    /// ratings and two markers); nothing was appended.
    Oversized,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadHeader => write!(f, "WAL header missing or invalid"),
            WalError::Poisoned => write!(f, "WAL poisoned by an earlier write or fsync failure"),
            WalError::Oversized => write!(f, "WAL unit exceeds the largest record"),
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
    /// Decoded entries of the valid prefix with their sequence numbers,
    /// in append order.
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

/// Encode one record — `ratings`, then `markers`, numbered from
/// `first_seq` — by appending it to `out`: the entries are written in
/// place behind a reserved length and checksum, which are patched in once
/// the payload is complete. Each entry is staged in a fixed-size array, so
/// it costs one constant-length copy. Allocation-free in steady state
/// (`out` is a reusable buffer that only grows until its high-water mark).
/// Returns the number of entries; with none, or with a payload over
/// `max_payload`, `out` is left as it was (0, or [`WalError::Oversized`]).
fn encode_unit_into(
    first_seq: u64,
    ratings: &[Rating],
    markers: &[WalRecord],
    out: &mut Vec<u8>,
    max_payload: usize,
) -> Result<u64, WalError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 12]);
    out.extend_from_slice(&first_seq.to_le_bytes());
    for r in ratings.iter().map(|&r| WalRecord::Rating(r)).chain(markers.iter().copied()) {
        match r {
            WalRecord::Rating(r) => {
                let mut e = [0u8; RATING_ENTRY_LEN];
                e[0] = KIND_RATING;
                e[1..9].copy_from_slice(&r.rater.raw().to_le_bytes());
                e[9..17].copy_from_slice(&r.ratee.raw().to_le_bytes());
                e[17] = match r.value {
                    RatingValue::Negative => 0,
                    RatingValue::Neutral => 1,
                    RatingValue::Positive => 2,
                };
                e[18..26].copy_from_slice(&r.time.raw().to_le_bytes());
                out.extend_from_slice(&e);
            }
            WalRecord::EpochClose { forced } => {
                out.extend_from_slice(&[KIND_EPOCH_CLOSE, u8::from(forced)]);
            }
            WalRecord::StreamSession { session, frame_seq, accepted } => {
                let mut e = [0u8; SESSION_ENTRY_LEN];
                e[0] = KIND_STREAM_SESSION;
                e[1..9].copy_from_slice(&session.to_le_bytes());
                e[9..17].copy_from_slice(&frame_seq.to_le_bytes());
                e[17..25].copy_from_slice(&accepted.to_le_bytes());
                out.extend_from_slice(&e);
            }
        }
    }
    let entries = (ratings.len() + markers.len()) as u64;
    let len = out.len() - start - 12;
    if entries == 0 || len > max_payload {
        out.truncate(start);
        return if entries == 0 { Ok(0) } else { Err(WalError::Oversized) };
    }
    let checksum = fnv64(&out[start + 12..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + 12].copy_from_slice(&checksum.to_le_bytes());
    Ok(entries)
}

#[cfg(test)]
fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_unit_into(seq, &[], &[*record], &mut out, usize::MAX).expect("one entry");
    out
}

/// Decode a record payload: its `first_seq` and first entry, returned,
/// then the rest of its entries, into `rest` (cleared first) — all of
/// which must decode, filling the payload exactly, so a record that fails
/// is dropped whole, before any of it is visited. One function, so the
/// reader stays in registers: a record of one entry, the common case,
/// decodes at the speed of a single-entry format.
fn decode_payload(
    payload: &[u8],
    rest: &mut Vec<WalRecord>,
) -> Result<(u64, WalRecord), CodecError> {
    let mut r = ByteReader::new(payload);
    let first_seq = r.get_u64()?;
    let mut first = None;
    rest.clear();
    loop {
        let record = match r.get_u8()? {
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
        match first {
            None => first = Some(record),
            Some(_) => rest.push(record),
        }
        if r.is_exhausted() {
            return first.map(|first| (first_seq, first)).ok_or(CodecError::BadLength);
        }
    }
}

/// Validate a WAL file header (version 1 or 2); returns its version and
/// `start_seq`.
fn parse_header(header: &[u8]) -> Result<(u32, u64), WalError> {
    let mut hdr = ByteReader::new(header);
    let magic = hdr.get_bytes(4).map_err(|_| WalError::BadHeader)?;
    let version = hdr.get_u32().map_err(|_| WalError::BadHeader)?;
    if magic != WAL_MAGIC || !(1..=WAL_VERSION).contains(&version) {
        return Err(WalError::BadHeader);
    }
    Ok((version, hdr.get_u64().map_err(|_| WalError::BadHeader)?))
}

/// The one record loop of this format: decode records from the front of
/// `bytes` (no file header), handing each entry to `visit`, until the bytes
/// run out or a record fails validation. A record's `first_seq` must be
/// `*expect_seq`, which is advanced past every entry visited, and all of a
/// record's entries are checked before the first is visited. Returns the
/// bytes consumed and why the scan stopped short of the end, if it did.
/// Never panics.
fn scan_records(
    bytes: &[u8],
    expect_seq: &mut u64,
    visit: &mut impl FnMut(u64, WalRecord),
) -> (usize, Option<CodecError>) {
    let mut pos = 0;
    let mut rest = Vec::new();
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
            let (first_seq, first) = decode_payload(payload, &mut rest)?;
            Ok((frame.pos(), first_seq, first))
        })();
        match outcome {
            Ok((consumed, first_seq, first)) if first_seq == *expect_seq => {
                pos += consumed;
                for record in std::iter::once(first).chain(rest.iter().copied()) {
                    visit(*expect_seq, record);
                    *expect_seq += 1;
                }
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
    let (_, mut next_seq) = parse_header(header)?;
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
/// bytes. Returns the header's version beside the scan.
fn scan_file(
    file: &mut File,
    chunk: usize,
    mut visit: impl FnMut(u64, WalRecord),
) -> Result<(u32, WalScan), WalError> {
    let file_len = file.seek(SeekFrom::End(0))?;
    if file_len < WAL_HEADER_LEN as u64 {
        return Err(WalError::BadHeader);
    }
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; WAL_HEADER_LEN];
    file.read_exact(&mut header)?;
    let (version, mut next_seq) = parse_header(&header)?;

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
    Ok((
        version,
        WalScan { valid_len, truncated_bytes: file_len - valid_len, corruption, next_seq },
    ))
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

/// A fault a test arms on a live log (see [`Wal::inject_fault`]), counted
/// from the moment it is armed; `k = 0` disarms it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFault {
    /// The `k`-th `write(2)` of the encode buffer (1-based) writes the first
    /// half of its bytes, then fails — a short write followed by `EIO`.
    Write(u64),
    /// The `k`-th `sync_data` (1-based) fails without syncing.
    Sync(u64),
}

/// Countdowns of armed faults (0: disarmed), shared with the committer
/// thread. Every `write(2)` and `sync_data` of a live log goes through
/// here; unarmed, each costs one atomic read-modify-write.
#[derive(Debug, Default)]
struct Faults {
    write: AtomicU64,
    sync: AtomicU64,
}

impl Faults {
    /// Count one operation against `countdown`: whether it is the one that
    /// fails.
    fn fires(countdown: &AtomicU64) -> bool {
        countdown.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1)) == Ok(1)
    }

    fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        if Faults::fires(&self.write) {
            file.write_all(&bytes[..bytes.len() / 2])?;
            return Err(io::Error::other("injected WAL write fault"));
        }
        file.write_all(bytes)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        if Faults::fires(&self.sync) {
            return Err(io::Error::other("injected WAL fsync fault"));
        }
        file.sync_data()
    }
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
    /// The first I/O failure, kept for good: it poisons the log.
    failed: Option<String>,
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
    /// `progress.failed.is_some()`, readable by the append path without
    /// the lock.
    failed: AtomicBool,
    faults: Arc<Faults>,
}

impl CommitShared {
    /// Account one `sync_data` that was asked to cover `target` and wake
    /// the waiters. Success advances the watermark; a failure is kept for
    /// good and leaves the watermark where the last successful fsync put
    /// it — waiters leave on `failed`, not on a watermark that would call
    /// never-synced bytes durable.
    fn publish(&self, target: u64, res: io::Result<()>) {
        if let Ok(mut p) = self.progress.lock() {
            p.fsyncs += 1;
            match res {
                Ok(()) => p.durable_len = p.durable_len.max(target),
                Err(e) => {
                    p.failed.get_or_insert_with(|| e.to_string());
                    self.failed.store(true, Ordering::Relaxed);
                }
            }
        }
        self.cv.notify_all();
    }

    /// The committer's failure, as the error its first observer returns.
    fn failure(&self) -> WalError {
        let msg = self.progress.lock().ok().and_then(|p| p.failed.clone());
        WalError::Io(io::Error::other(msg.unwrap_or_else(|| "WAL committer failed".into())))
    }
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
/// returns. Never panics on I/O failure: the first one is published, and
/// the committer syncs nothing after it.
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
        if target > durable && !shared.failed.load(Ordering::Relaxed) {
            shared.publish(target, shared.faults.sync_data(&file));
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
    /// fails, or `timeout` elapses. Returns whether the watermark covers
    /// `target` (a failure reads as `false`; the caller's next blocking
    /// [`Wal::sync`] returns it).
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
/// everything durable. Callers schedule syncs and always sync before a
/// checkpoint. [`Wal::enable_group_commit`] additionally moves fsyncs to a
/// background committer thread with bounded-latency batching — the
/// [`SyncPolicy::Async`] mode.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Logical length: header + every encoded record, including bytes
    /// still in `buf`.
    len: u64,
    /// Byte span `[start, end)` of the most recent record, for
    /// crash-injection harnesses that tear it.
    last_record_span: (u64, u64),
    /// Encoded-but-unwritten records (reused; never shrinks).
    buf: Vec<u8>,
    /// Logical byte length confirmed durable by a synchronous fsync
    /// ([`Wal::sync`] without a committer). With group commit on, the
    /// committer's progress supersedes this — see [`Wal::durable_len`].
    synced_len: u64,
    /// Committer thread and hand-over triggers, when async mode is on.
    committer: Option<Committer>,
    /// Whether a write or fsync failed (the committer's failures are
    /// folded in by [`Wal::healthy`]).
    poisoned: bool,
    /// Injected faults (shared with the committer).
    faults: Arc<Faults>,
}

impl Wal {
    /// A log positioned at `len` bytes of `file`, next entry `next_seq`,
    /// everything so far durable.
    fn at(file: File, path: &Path, next_seq: u64, len: u64) -> Self {
        Wal {
            file,
            path: path.to_path_buf(),
            next_seq,
            len,
            last_record_span: (len, len),
            buf: Vec::new(),
            synced_len: len,
            committer: None,
            poisoned: false,
            faults: Arc::default(),
        }
    }

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
        Ok(Wal::at(file, path, start_seq, WAL_HEADER_LEN as u64))
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
    /// entry goes to `visit` as it is decoded, and the file is read a
    /// chunk at a time, so opening a log of any length holds neither its
    /// image nor its decoded records. A version-1 header is rewritten to
    /// the current version before anything is appended.
    pub fn open_with(
        path: &Path,
        visit: impl FnMut(u64, WalRecord),
    ) -> Result<(Self, WalScan), WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let (version, scan) = scan_file(&mut file, SCAN_CHUNK, visit)?;
        if scan.truncated_bytes > 0 {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        if version != WAL_VERSION {
            // the records appended from here on may hold several entries,
            // which a reader of the old version would cut off as torn
            file.seek(SeekFrom::Start(4))?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        Ok((Wal::at(file, path, scan.next_seq, scan.valid_len), scan))
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
            failed: AtomicBool::new(false),
            faults: Arc::clone(&self.faults),
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

    /// Arm `fault` on this log: the `k`-th `write(2)` or `sync_data` from
    /// now fails, poisoning it. A seam for fault-injection tests; it acts
    /// on this log's own file and nothing else.
    pub fn inject_fault(&mut self, fault: WalFault) {
        match fault {
            WalFault::Write(k) => self.faults.write.store(k, Ordering::Relaxed),
            WalFault::Sync(k) => self.faults.sync.store(k, Ordering::Relaxed),
        }
    }

    /// `Ok` unless a write or fsync has failed, after which every append,
    /// hand-over and barrier fails too. The first call to see a committer
    /// failure returns its I/O error; every later one,
    /// [`WalError::Poisoned`].
    #[inline]
    pub fn healthy(&mut self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        match &self.committer {
            Some(c) if c.shared.failed.load(Ordering::Relaxed) => {
                self.poisoned = true;
                Err(c.shared.failure())
            }
            _ => Ok(()),
        }
    }

    /// Bytes written to the OS so far (logical length minus the encode
    /// buffer's backlog).
    #[inline]
    fn os_len(&self) -> u64 {
        self.len - self.buf.len() as u64
    }

    /// Write the encode buffer to the OS (no fsync) and clear it. A
    /// failure poisons the log.
    fn flush_os(&mut self) -> Result<(), WalError> {
        if !self.buf.is_empty() {
            if let Err(e) = self.faults.write_all(&mut self.file, &self.buf) {
                self.poisoned = true;
                return Err(e.into());
            }
            self.buf.clear();
        }
        Ok(())
    }

    /// Hand over: write the encode buffer to the OS and ask the committer
    /// to make everything so far durable (non-blocking). Disarms the
    /// max-delay clock; the next append arms it again.
    fn request_commit(&mut self) -> Result<(), WalError> {
        self.healthy()?;
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

    /// Append one unit as one record — `ratings`, then `markers`, numbered
    /// consecutively — and return the sequence number of its first entry.
    /// A torn tail keeps all of a unit or none of it. The bytes are
    /// buffered (reaching the OS at the next flush boundary) and only
    /// crash-durable after [`Wal::sync`]. An empty unit appends nothing; one
    /// larger than the largest record ([`MAX_UNIT_RATINGS`] ratings and two
    /// markers) appends nothing and fails with [`WalError::Oversized`].
    pub fn append_unit(
        &mut self,
        ratings: &[Rating],
        markers: &[WalRecord],
    ) -> Result<u64, WalError> {
        self.healthy()?;
        let seq = self.next_seq;
        let before = self.buf.len();
        let entries =
            encode_unit_into(seq, ratings, markers, &mut self.buf, MAX_PAYLOAD_LEN as usize)?;
        if entries == 0 {
            return Ok(seq);
        }
        let encoded = (self.buf.len() - before) as u64;
        self.last_record_span = (self.len, self.len + encoded);
        self.len += encoded;
        self.next_seq += entries;
        self.after_append()?;
        Ok(seq)
    }

    /// Append one entry as a record of its own, returning its sequence
    /// number.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        self.append_unit(&[], std::slice::from_ref(record))
    }

    /// Append a run of ratings, returning the sequence-number range
    /// `[start, end)` they occupy: one record per [`MAX_UNIT_RATINGS`] of
    /// them, so a batch costs one checksum and one length prefix per
    /// record, and at most one `write(2)` per `WRITE_BUF_FLUSH` bytes.
    pub fn append_ratings(&mut self, ratings: &[Rating]) -> Result<(u64, u64), WalError> {
        let start = self.next_seq;
        for unit in ratings.chunks(MAX_UNIT_RATINGS) {
            self.append_unit(unit, &[])?;
        }
        Ok((start, self.next_seq))
    }

    /// Force appended records to stable storage (group fsync point). In
    /// group-commit mode this is the barrier: it hands the backlog to the
    /// committer and blocks until the durable watermark covers every
    /// append so far. A failure poisons the log, so a later barrier never
    /// reports durable what a failed fsync may have lost.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.request_commit()?;
        let Some(c) = &self.committer else {
            if let Err(e) = self.faults.sync_data(&self.file) {
                self.poisoned = true;
                return Err(e.into());
            }
            self.synced_len = self.len;
            return Ok(());
        };
        let target = self.len;
        let shared = Arc::clone(&c.shared);
        let mut progress = shared.progress.lock().expect("WAL committer mutex poisoned");
        while progress.durable_len < target && progress.failed.is_none() {
            progress = shared.cv.wait(progress).expect("WAL committer mutex poisoned");
        }
        drop(progress);
        self.healthy()
    }

    /// Write buffered encodes to the OS without forcing durability, so
    /// readers of [`Wal::path`] observe every append so far. Crash
    /// durability still requires [`Wal::sync`].
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.healthy()?;
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
    /// without stalling the append path. Without group commit it only
    /// checks that the log is healthy — synchronous logs advance the
    /// watermark in [`Wal::sync`].
    pub fn request_durable(&mut self) -> Result<(), WalError> {
        if self.committer.is_some() {
            self.request_commit()
        } else {
            self.healthy()
        }
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
    /// Flush buffered encodes to the OS — unless the log is poisoned, when
    /// nothing more is written — and retire the committer thread. Dropping
    /// does *not* fsync (matching the synchronous writer's drop semantics)
    /// — durability barriers are explicit [`Wal::sync`] calls.
    fn drop(&mut self) {
        if self.healthy().is_ok() {
            let _ = self.flush_os();
        }
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
    fn batched_appends_replay_the_entries_of_looped_appends_in_one_record() {
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
        // one record: one length, checksum and first_seq, then 26 B an entry
        let one_record = (WAL_HEADER_LEN as u64, batched.len_bytes());
        assert_eq!(batched.last_record_span(), one_record);
        assert_eq!(one_record.1 - one_record.0, 20 + 26 * ratings.len() as u64);
        assert_eq!(looped.len_bytes() - WAL_HEADER_LEN as u64, 46 * ratings.len() as u64);
        batched.sync().unwrap();
        let (looped, batched_replay) = (
            replay_bytes(&std::fs::read(&looped_path).unwrap()).unwrap(),
            replay_bytes(&std::fs::read(&batched_path).unwrap()).unwrap(),
        );
        assert_eq!(batched_replay.records, looped.records, "the same entries under the same seqs");
        assert_eq!(batched_replay.next_seq, looped.next_seq);
        // empty batch: no-op, sequence unchanged
        assert_eq!(batched.append_ratings(&[]).unwrap(), (end, end));
        assert_eq!(batched.next_seq(), end);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A unit of the largest stream frame — every rating
    /// [`MAX_FRAME_PAYLOAD`] can carry, its session marker and a forced
    /// close — is one record that round-trips; a record one byte longer
    /// ends the scan however valid its entries and checksum, and a run of
    /// ratings one longer than a unit is split into two records.
    #[test]
    fn the_largest_frame_is_one_record_and_one_byte_more_ends_the_scan() {
        let dir = scratch("bound");
        let path = dir.join("bound.wal");
        let ratings: Vec<Rating> =
            (0..MAX_UNIT_RATINGS as u64).map(|k| rating(k % 97 + 1, k % 89 + 1, k)).collect();
        let session = WalRecord::StreamSession { session: 9, frame_seq: 1, accepted: 41_943 };
        let close = WalRecord::EpochClose { forced: true };
        let mut wal = Wal::create(&path, 0).unwrap();
        assert_eq!(wal.append_unit(&ratings, &[session, close]).unwrap(), 0);
        let (start, end) = wal.last_record_span();
        assert_eq!(end - start, MAX_RECORD_LEN as u64, "the bound is exactly the largest unit");
        let over = [ratings.as_slice(), &ratings[..1]].concat();
        assert!(matches!(wal.append_unit(&over, &[session]), Err(WalError::Oversized)));
        assert_eq!(wal.len_bytes(), end, "an oversized unit appends nothing");
        let (first, next) = wal.append_ratings(&over).unwrap();
        assert_eq!(next - first, over.len() as u64);
        // a full unit without markers, then the one rating past it alone
        assert_eq!(wal.len_bytes(), end + MAX_RECORD_LEN as u64 - 27 + 46);
        wal.sync().unwrap();
        drop(wal);
        let replay = replay_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!replay.is_truncated());
        let mut expect: Vec<WalRecord> = ratings.iter().map(|&r| WalRecord::Rating(r)).collect();
        expect.extend([session, close]);
        expect.extend(over.iter().map(|&r| WalRecord::Rating(r)));
        let got: Vec<WalRecord> = replay.records.iter().map(|&(_, r)| r).collect();
        assert_eq!(got, expect);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(end as usize);
        let mut one_over = Vec::new();
        let entries =
            encode_unit_into(replay.next_seq, &over, &[close], &mut one_over, usize::MAX).unwrap();
        assert_eq!(one_over.len(), MAX_RECORD_LEN + 1);
        bytes.extend_from_slice(&one_over);
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(entries, MAX_UNIT_RATINGS as u64 + 2);
        assert_eq!(replay.records.len(), MAX_UNIT_RATINGS + 2, "only the legal record");
        assert_eq!(replay.corruption, Some(CodecError::BadLength));
        assert_eq!(replay.valid_len, end);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn frame record takes all of its ratings and its session marker
    /// with it: the log's last session marker is the previous frame's.
    #[test]
    fn a_torn_multi_rating_record_drops_the_whole_frame() {
        let dir = scratch("torn-frame");
        let path = dir.join("frames.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        let frame =
            |f: u64| -> Vec<Rating> { (0..5).map(|k| rating(f, k + 10, f * 5 + k)).collect() };
        let marker =
            |f: u64| WalRecord::StreamSession { session: 7, frame_seq: f, accepted: 5 * f };
        wal.append_unit(&frame(1), &[marker(1)]).unwrap();
        wal.append_unit(&frame(2), &[marker(2)]).unwrap();
        wal.sync().unwrap();
        let (start, end) = wal.last_record_span();
        drop(wal);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(start + (end - start) / 2).unwrap();
        drop(f);

        let (_, replay) = Wal::open_existing(&path).unwrap();
        assert!(replay.is_truncated());
        let ratings: Vec<Rating> = replay
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Rating(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert_eq!(ratings, frame(1), "none of the torn frame's ratings survives");
        let last_marker = replay.records.iter().rev().find_map(|(_, r)| match r {
            WalRecord::StreamSession { frame_seq, accepted, .. } => Some((*frame_seq, *accepted)),
            _ => None,
        });
        assert_eq!(last_marker, Some((1, 5)), "the session stands at the frame before");
        assert_eq!(replay.next_seq, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A version-1 log — one entry a record — reads as it always did, and
    /// opening it for appending rewrites its header to the current version.
    #[test]
    fn a_version_1_log_replays_and_is_upgraded_before_appending() {
        let dir = scratch("v1");
        let path = dir.join("v1.wal");
        let mut bytes = Vec::from(WAL_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        let v1 = [
            WalRecord::Rating(rating(1, 2, 0)),
            WalRecord::StreamSession { session: 3, frame_seq: 1, accepted: 1 },
            WalRecord::EpochClose { forced: false },
        ];
        for (k, r) in v1.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(4 + k as u64, r));
        }
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, replay) = Wal::open_existing(&path).unwrap();
        assert!(!replay.is_truncated());
        assert_eq!(replay.records, vec![(4, v1[0]), (5, v1[1]), (6, v1[2])]);
        assert_eq!(std::fs::read(&path).unwrap()[4..8], WAL_VERSION.to_le_bytes());
        wal.append_unit(&[rating(5, 6, 1), rating(6, 5, 2)], &[]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replay = replay_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert!(!replay.is_truncated());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected short write poisons the log: the failing append
    /// reports the I/O error, every later call fails, and dropping the log
    /// writes nothing more — the file keeps the torn half-record, which
    /// the next open cuts off.
    #[test]
    fn a_failed_write_poisons_the_log() {
        let dir = scratch("write-fault");
        let path = dir.join("fault.wal");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append(&WalRecord::Rating(rating(1, 2, 0))).unwrap();
        wal.sync().unwrap();
        let durable = wal.len_bytes();
        wal.inject_fault(WalFault::Write(2));
        wal.append_ratings(&[rating(2, 3, 1), rating(3, 4, 2)]).unwrap();
        wal.flush().unwrap(); // the first write goes through
        wal.append(&WalRecord::Rating(rating(4, 5, 3))).unwrap();
        let err = wal.sync().expect_err("the second write fails");
        assert!(err.to_string().contains("injected"), "{err}");
        for call in [
            wal.healthy(),
            wal.append(&WalRecord::EpochClose { forced: false }).map(drop),
            wal.sync(),
            wal.flush(),
            wal.request_durable(),
        ] {
            assert!(matches!(call, Err(WalError::Poisoned)), "{call:?}");
        }
        assert_eq!(wal.durable_len(), durable);
        let written = durable + 72;
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), written + 23, "half of one record");
        let (_, replay) = Wal::open_existing(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.truncated_bytes, 23);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected fsync failure poisons the log the same way with and
    /// without a committer, and never moves the durable watermark.
    #[test]
    fn a_failed_fsync_poisons_the_log_in_both_modes() {
        let dir = scratch("sync-fault");
        for group_commit in [false, true] {
            let mut wal = Wal::create(&dir.join(format!("{group_commit}.wal")), 0).unwrap();
            if group_commit {
                wal.enable_group_commit(u32::MAX, u32::MAX).unwrap();
            }
            wal.append(&WalRecord::Rating(rating(1, 2, 0))).unwrap();
            wal.sync().unwrap();
            let durable = wal.durable_len();
            wal.inject_fault(WalFault::Sync(1));
            wal.append(&WalRecord::Rating(rating(2, 3, 1))).unwrap();
            let err = wal.sync().expect_err("the fsync fails");
            assert!(err.to_string().contains("injected"), "{err}");
            assert!(matches!(wal.sync(), Err(WalError::Poisoned)));
            assert!(matches!(
                wal.append(&WalRecord::Rating(rating(3, 4, 2))),
                Err(WalError::Poisoned)
            ));
            assert_eq!(wal.durable_len(), durable, "group commit: {group_commit}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
    fn failed_fsync_leaves_the_watermark_and_fails_every_later_barrier() {
        let dir = scratch("failed-fsync");
        let mut wal = Wal::create(&dir.join("failed.wal"), 0).unwrap();
        wal.enable_group_commit(u32::MAX, u32::MAX).unwrap();
        for k in 0..10 {
            wal.append(&WalRecord::Rating(rating(k + 1, 2, k))).unwrap();
        }
        let target = wal.len_bytes();
        let shared = Arc::clone(&wal.committer.as_ref().unwrap().shared);
        // the committer's publish step, fed the error a dying disk returns
        shared.publish(target, Err(io::Error::other("EIO")));
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64, "never-synced bytes read durable");
        let waiter = wal.waiter().unwrap();
        assert!(!waiter.wait_covered(target, Duration::from_secs(5)), "a failure reads false");
        let err = wal.sync().expect_err("the barrier returns the committer's error");
        assert!(err.to_string().contains("EIO"), "{err}");
        // no retry: the failure stands, and the watermark with it
        for _ in 0..3 {
            assert!(matches!(wal.sync(), Err(WalError::Poisoned)));
        }
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN as u64);
        assert!(!waiter.wait_covered(target, Duration::ZERO));
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
        assert!(intact.len() > 3 * 1000, "several windows' worth of log at the smaller chunks");

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
                let (_, scan) =
                    scan_file(&mut file, chunk, |seq, r| streamed.push((seq, r))).unwrap();
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

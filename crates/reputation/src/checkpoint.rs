//! Atomic, checksummed checkpoints of detection state.
//!
//! A checkpoint bounds WAL replay: it captures the full detection state as of
//! a WAL sequence number, so recovery only replays records *after* it. The
//! payload encoding is owned by the caller (the engine serializes its
//! snapshot, verdict map and stats in `collusion-core`); this module owns the
//! file protocol:
//!
//! * **Atomicity** — header and payload are written to `ckpt-<seq>.tmp`,
//!   fsync'd, then renamed to `ckpt-<seq>.ckpt`. A crash before the rename
//!   leaves only a `.tmp`, which loading ignores; after the rename the
//!   checkpoint is complete. There is no in-between state in which a
//!   half-written file can be mistaken for a checkpoint.
//! * **Integrity** — every file carries a 32-byte header with magic,
//!   version, WAL sequence number, payload length and a
//!   [`wordsum64`] checksum over *every other byte of the file*: the 24
//!   header bytes before it, then the payload. Any single-bit flip anywhere
//!   in an image therefore fails to decode (property-tested in
//!   `tests/durability_props.rs`). [`CheckpointStore::load_latest`] walks
//!   checkpoints newest-first and returns the first one that validates, so a
//!   corrupt newest checkpoint degrades to the previous one — and, with none
//!   left, to a full WAL replay, the log never being truncated — instead of
//!   failing recovery.
//! * **Retention** — after a successful save, all but the newest
//!   `keep` checkpoints (and any stale `.tmp` litter) are deleted.
//!
//! ```text
//! file := "CCKP" version:u32 wal_seq:u64 payload_len:u64 checksum:u64 payload
//! ```
//!
//! Version 2. Version 1 summed the payload alone, a byte at a time with
//! FNV-1a (82 ms on a 58 MB image, and a flipped `wal_seq` went unnoticed);
//! a version-1 file is skipped like any other invalid image and counted in
//! [`CheckpointLoad::invalid_skipped`]. The payload bytes did not change.
//!
//! Saving and loading touch the payload once each: [`CheckpointStore::save`]
//! sums it and writes it from the caller's buffer, and
//! [`CheckpointStore::load_latest`] reads it into the `Vec` it returns.

use crate::codec::wordsum64;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File magic: "CCKP".
const CKPT_MAGIC: [u8; 4] = *b"CCKP";
/// Format version.
const CKPT_VERSION: u32 = 2;
/// Header size: magic + version + wal_seq + payload_len + checksum.
const CKPT_HEADER_LEN: usize = 32;
/// Offset of the checksum, the header's last field; it covers the header
/// bytes before this offset and the payload.
const CKPT_SUM_AT: usize = 24;
/// Completed-checkpoint file suffix.
const CKPT_SUFFIX: &str = ".ckpt";
/// In-progress (pre-rename) file suffix.
const TMP_SUFFIX: &str = ".tmp";

/// Errors from checkpoint file operations.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem I/O failed.
    Io(io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// What [`CheckpointStore::load_latest`] found.
#[derive(Clone, Debug, Default)]
pub struct CheckpointLoad {
    /// The newest valid checkpoint: (WAL high-water seq, payload bytes).
    pub latest: Option<(u64, Vec<u8>)>,
    /// Completed checkpoint files that failed validation and were skipped.
    pub invalid_skipped: usize,
    /// Stale `.tmp` files seen (evidence of a crash mid-checkpoint).
    pub stale_tmp: usize,
}

/// The header fields the checksum covers: magic, version, `wal_seq`,
/// `payload_len`.
fn summed_fields(wal_seq: u64, payload_len: usize) -> [u8; CKPT_SUM_AT] {
    let mut h = [0u8; CKPT_SUM_AT];
    h[..4].copy_from_slice(&CKPT_MAGIC);
    h[4..8].copy_from_slice(&CKPT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&wal_seq.to_le_bytes());
    h[16..].copy_from_slice(&(payload_len as u64).to_le_bytes());
    h
}

/// The checksum of an image: the summed header fields, then the payload.
fn image_sum(fields: &[u8], payload: &[u8]) -> u64 {
    wordsum64(wordsum64(0, fields), payload)
}

/// The header of a checkpoint of `payload` at `wal_seq`.
fn encode_header(wal_seq: u64, payload: &[u8]) -> [u8; CKPT_HEADER_LEN] {
    let fields = summed_fields(wal_seq, payload.len());
    let mut h = [0u8; CKPT_HEADER_LEN];
    h[..CKPT_SUM_AT].copy_from_slice(&fields);
    h[CKPT_SUM_AT..].copy_from_slice(&image_sum(&fields, payload).to_le_bytes());
    h
}

/// Validate `payload` against the header that preceded it — magic,
/// version and length first, so a foreign or short file costs no pass
/// over its bytes, then the checksum. Returns the header's `wal_seq`.
fn validate(header: &[u8; CKPT_HEADER_LEN], payload: &[u8]) -> Option<u64> {
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let wal_seq = word(8);
    let fields = &header[..CKPT_SUM_AT];
    if fields != summed_fields(wal_seq, payload.len()) {
        return None;
    }
    (word(CKPT_SUM_AT) == image_sum(fields, payload)).then_some(wal_seq)
}

/// Encode a checkpoint file image: header + payload. What
/// [`CheckpointStore::save`] writes, as one buffer — for harnesses that
/// tear or corrupt images.
pub fn encode_checkpoint(wal_seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut image = Vec::with_capacity(CKPT_HEADER_LEN + payload.len());
    image.extend_from_slice(&encode_header(wal_seq, payload));
    image.extend_from_slice(payload);
    image
}

/// Decode and validate a checkpoint file image. Returns `(wal_seq,
/// payload)`, the payload borrowed from `bytes`, or `None` for any
/// malformed input — never panics.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (header, payload) = bytes.split_first_chunk::<CKPT_HEADER_LEN>()?;
    validate(header, payload).map(|wal_seq| (wal_seq, payload))
}

/// Read and validate one checkpoint file: the header into its own array,
/// then the payload into the `Vec` handed back, so the payload is never
/// copied. `None` for an unreadable or invalid file.
fn read_checkpoint(path: &Path) -> Option<(u64, Vec<u8>)> {
    let mut f = fs::File::open(path).ok()?;
    let mut header = [0u8; CKPT_HEADER_LEN];
    f.read_exact(&mut header).ok()?;
    let mut payload = Vec::new();
    // sized from the file's metadata, never from the header's length field
    f.read_to_end(&mut payload).ok()?;
    validate(&header, &payload).map(|wal_seq| (wal_seq, payload))
}

/// A directory of numbered checkpoint files.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Store over `dir` (created if absent), retaining the newest `keep`
    /// checkpoints (minimum 1).
    pub fn new(dir: &Path, keep: usize) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointStore { dir: dir.to_path_buf(), keep: keep.max(1) })
    }

    /// The directory holding the checkpoint files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn ckpt_path(&self, wal_seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{wal_seq:020}{CKPT_SUFFIX}"))
    }

    /// Path a checkpoint for `wal_seq` is staged at before its rename.
    /// Exposed for crash-injection harnesses that simulate a mid-checkpoint
    /// crash by leaving a partial `.tmp` behind.
    pub fn tmp_path(&self, wal_seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{wal_seq:020}{TMP_SUFFIX}"))
    }

    /// Atomically persist a checkpoint covering the WAL prefix up to and
    /// including `wal_seq`: write `.tmp`, fsync, rename, prune old files.
    /// The payload goes to the file straight from the caller's buffer.
    pub fn save(&self, wal_seq: u64, payload: &[u8]) -> Result<PathBuf, CheckpointError> {
        let tmp = self.tmp_path(wal_seq);
        let finished = self.ckpt_path(wal_seq);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode_header(wal_seq, payload))?;
            f.write_all(payload)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &finished)?;
        self.prune()?;
        Ok(finished)
    }

    /// Sequence numbers of completed checkpoint files, ascending. Files whose
    /// names do not parse are ignored.
    fn completed_seqs(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(CKPT_SUFFIX))
            {
                if let Ok(seq) = stem.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let seqs = self.completed_seqs()?;
        if seqs.len() > self.keep {
            for &seq in &seqs[..seqs.len() - self.keep] {
                fs::remove_file(self.ckpt_path(seq)).ok();
            }
        }
        Ok(())
    }

    /// Load the newest checkpoint that validates, skipping corrupt files and
    /// ignoring stale `.tmp` litter. Returns what was found and skipped.
    pub fn load_latest(&self) -> Result<CheckpointLoad, CheckpointError> {
        let mut load = CheckpointLoad::default();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(|n| n.ends_with(TMP_SUFFIX)) {
                load.stale_tmp += 1;
            }
        }
        let mut seqs = self.completed_seqs()?;
        seqs.reverse();
        for seq in seqs {
            // trust the header's wal_seq only if it matches the filename
            match read_checkpoint(&self.ckpt_path(seq)) {
                Some((wal_seq, payload)) if wal_seq == seq => {
                    load.latest = Some((wal_seq, payload));
                    return Ok(load);
                }
                _ => load.invalid_skipped += 1,
            }
        }
        Ok(load)
    }

    /// Remove stale `.tmp` files (called after a successful recovery).
    pub fn clear_stale_tmp(&self) -> Result<usize, CheckpointError> {
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(|n| n.ends_with(TMP_SUFFIX))
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "collusion-ckpt-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let dir = scratch("roundtrip");
        let store = CheckpointStore::new(&dir, 2).unwrap();
        store.save(5, b"state at five").unwrap();
        store.save(9, b"state at nine").unwrap();
        let load = store.load_latest().unwrap();
        let (seq, payload) = load.latest.unwrap();
        assert_eq!(seq, 9);
        assert_eq!(payload, b"state at nine");
        assert_eq!(load.invalid_skipped, 0);
        assert_eq!(load.stale_tmp, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_keeps_newest_k() {
        let dir = scratch("retain");
        let store = CheckpointStore::new(&dir, 2).unwrap();
        for seq in [1, 2, 3, 4] {
            store.save(seq, b"x").unwrap();
        }
        let seqs = store.completed_seqs().unwrap();
        assert_eq!(seqs, vec![3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = scratch("fallback");
        let store = CheckpointStore::new(&dir, 3).unwrap();
        store.save(3, b"good old state").unwrap();
        let newest = store.save(7, b"good new state").unwrap();
        // corrupt the newest checkpoint's payload
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let load = store.load_latest().unwrap();
        let (seq, payload) = load.latest.unwrap();
        assert_eq!(seq, 3);
        assert_eq!(payload, b"good old state");
        assert_eq!(load.invalid_skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_is_ignored_and_counted() {
        let dir = scratch("tmp");
        let store = CheckpointStore::new(&dir, 2).unwrap();
        store.save(4, b"complete").unwrap();
        // simulate a crash mid-checkpoint: partial tmp never renamed
        let image = encode_checkpoint(8, b"half written");
        fs::write(store.tmp_path(8), &image[..image.len() / 2]).unwrap();
        let load = store.load_latest().unwrap();
        assert_eq!(load.latest.as_ref().unwrap().0, 4);
        assert_eq!(load.stale_tmp, 1);
        assert_eq!(store.clear_stale_tmp().unwrap(), 1);
        let load = store.load_latest().unwrap();
        assert_eq!(load.stale_tmp, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_malformed_images() {
        assert!(decode_checkpoint(b"").is_none());
        assert!(decode_checkpoint(b"CCKP").is_none());
        let good = encode_checkpoint(1, b"payload");
        assert!(decode_checkpoint(&good).is_some());
        // truncation
        assert!(decode_checkpoint(&good[..good.len() - 1]).is_none());
        // extra trailing byte makes the length field inconsistent
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_checkpoint(&padded).is_none());
        // bit flip in payload
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(decode_checkpoint(&flipped).is_none());
        // wrong magic
        let mut wrong = good;
        wrong[0] = b'X';
        assert!(decode_checkpoint(&wrong).is_none());
    }

    #[test]
    fn every_header_field_is_under_the_checksum() {
        let good = encode_checkpoint(0x0102_0304_0506_0708, b"sixteen byte pay");
        let (seq, payload) = decode_checkpoint(&good).unwrap();
        assert_eq!((seq, payload), (0x0102_0304_0506_0708, &b"sixteen byte pay"[..]));
        for idx in 0..good.len() {
            let mut flipped = good.clone();
            flipped[idx] ^= 0x10;
            assert!(decode_checkpoint(&flipped).is_none(), "flip at byte {idx} decoded");
        }
    }

    /// A version-1 image, as the previous format wrote it: FNV-1a over the
    /// payload alone.
    fn encode_v1(wal_seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut image = Vec::from(CKPT_MAGIC);
        image.extend_from_slice(&1u32.to_le_bytes());
        image.extend_from_slice(&wal_seq.to_le_bytes());
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(&crate::codec::fnv64(payload).to_le_bytes());
        image.extend_from_slice(payload);
        image
    }

    #[test]
    fn version_1_image_is_skipped_and_counted() {
        let dir = scratch("v1");
        let store = CheckpointStore::new(&dir, 3).unwrap();
        assert!(decode_checkpoint(&encode_v1(6, b"old format")).is_none());
        fs::write(store.ckpt_path(6), encode_v1(6, b"old format")).unwrap();
        let load = store.load_latest().unwrap();
        assert!(load.latest.is_none(), "nothing but a v1 image: fall back to the WAL");
        assert_eq!(load.invalid_skipped, 1);
        // an older v2 checkpoint is preferred over a newer v1 one
        store.save(4, b"new format").unwrap();
        let load = store.load_latest().unwrap();
        assert_eq!(load.latest, Some((4, b"new format".to_vec())));
        assert_eq!(load.invalid_skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_loads_nothing() {
        let dir = scratch("empty");
        let store = CheckpointStore::new(&dir, 2).unwrap();
        let load = store.load_latest().unwrap();
        assert!(load.latest.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Panic-free binary codec for the durability layer.
//!
//! Both the write-ahead log ([`crate::wal`]) and the checkpoint files
//! ([`crate::checkpoint`]) persist state as little-endian, length-prefixed,
//! checksummed binary records. This module holds the shared primitives:
//!
//! * [`ByteWriter`] — append-only encoder over a growable byte buffer;
//! * [`ByteReader`] — bounds-checked decoder that returns [`CodecError`]
//!   instead of panicking, whatever bytes it is fed (the corruption fuzz
//!   tests in `tests/durability_props.rs` hold it to that contract);
//! * [`fnv64`] — the FNV-1a 64-bit checksum guarding every WAL record
//!   (34 bytes at most, where a byte loop costs ~16 ns);
//! * [`wordsum64`] — the word-at-a-time 64-bit checksum guarding
//!   checkpoint images, which run to tens of megabytes: four independent
//!   lanes over little-endian `u64` words run at memory speed where the
//!   byte loop's one multiply per byte does not (12 ms against 82 ms on a
//!   58 MB image).
//!
//! Neither checksum is cryptographic: they detect torn writes and bit
//! rot, which is the failure model of a crashed local disk, not an
//! adversary with write access to the file.
//!
//! Decoders must never trust a length field: collection reads reserve at
//! most the number of bytes actually remaining, so a corrupt header cannot
//! trigger an unbounded allocation.

use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit checksum of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Odd multiplier of the [`wordsum64`] lanes (2⁶⁴ / φ): multiplying by an
/// odd constant is a bijection of `u64`.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Initial lane states, pairwise distinct so no two lanes are
/// interchangeable.
const LANE_INIT: [u64; 4] =
    [0xcbf2_9ce4_8422_2325, 0x8422_2325_cbf2_9ce4, 0x6a09_e667_f3bc_c908, 0xbb67_ae85_84ca_a73b];

/// One lane step: xor the word in, multiply, rotate. Each of the three is
/// a bijection of the lane state for a fixed word *and* of the word for a
/// fixed state, so two inputs that differ in this word alone can never
/// bring the lane back to the same state.
#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_MUL).rotate_left(29)
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Word-at-a-time 64-bit checksum of `bytes`, chained from `seed` (0 to
/// start; pass a previous sum to cover several buffers in order).
///
/// The input is read as little-endian `u64` words dealt round-robin onto
/// four lanes, each an FNV-1a-style xor-multiply chain (plus a rotate, so
/// high bits reach low ones); a partial last word is zero-padded, and the
/// lanes, then the length, are folded into one value by the same step.
/// The lanes carry no dependency on each other, so a core overlaps their
/// multiplies and the loop runs at memory speed.
///
/// Every step is a bijection of the state it updates, which gives the one
/// hard guarantee: two inputs of equal length and seed that differ inside
/// a single aligned 8-byte word (any single-bit flip, in particular)
/// always have different sums. Wider damage is caught with probability
/// 1 − 2⁻⁶⁴, as with any 64-bit sum.
pub fn wordsum64(seed: u64, bytes: &[u8]) -> u64 {
    let mut lanes = LANE_INIT;
    lanes[0] ^= seed;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, le_word(word));
        }
    }
    // at most three whole words and a partial one
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = lane_step(*lane, le_word(word));
    }
    let folded = lanes[1..].iter().fold(lanes[0], |h, &lane| lane_step(h, lane));
    lane_step(folded, bytes.len() as u64)
}

/// Why a decode failed. Every variant is a *data* problem — decoding never
/// panics and never aborts the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// A tag or enum discriminant held an undefined value.
    InvalidTag(u8),
    /// A magic number or version field did not match.
    BadMagic,
    /// A checksum did not match its payload.
    ChecksumMismatch,
    /// A length field was inconsistent with the data that followed.
    BadLength,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            CodecError::BadMagic => write!(f, "bad magic or version"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::BadLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian encoder.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `n` zero bytes and hand them back to be filled in place:
    /// one capacity check for a whole row of fixed-width fields instead
    /// of one per field.
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Validate a count field against the bytes that remain: each element
    /// occupies at least `min_elem_bytes`, so a count that promises more
    /// elements than could possibly fit is corrupt. Returns the count as
    /// `usize`. Guards collection reads against allocation bombs.
    pub fn checked_count(&self, count: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let max = self.remaining() / min_elem_bytes.max(1);
        if count as usize > max {
            return Err(CodecError::BadLength);
        }
        Ok(count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_f64(0.1 + 0.2);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_bytes(4).unwrap(), b"tail");
        assert!(r.is_exhausted());
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u64(), Err(CodecError::UnexpectedEof));
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u32(), Err(CodecError::UnexpectedEof));
        assert_eq!(r.get_bytes(3), Err(CodecError::UnexpectedEof));
        assert_eq!(r.get_bytes(2).unwrap(), &[2, 3]);
        assert_eq!(r.get_u8(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn fnv64_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
        assert_ne!(fnv64(b"abc"), fnv64(b"ab"));
        assert_eq!(fnv64(b"collusion"), fnv64(b"collusion"));
    }

    /// Deterministic filler that repeats nowhere within a hundred bytes.
    fn filler(len: usize) -> Vec<u8> {
        (0..len).map(|k| (k as u8).wrapping_mul(37).wrapping_add(11)).collect()
    }

    #[test]
    fn wordsum64_is_pinned() {
        // the checkpoint format on disk: a change here is a format change
        // and needs a new `CKPT_VERSION`
        assert_eq!(wordsum64(0, b""), 0x3340_211a_43e0_fae7);
        assert_eq!(wordsum64(0, b"collusion"), 0x2d85_1ebb_da73_4153);
        assert_eq!(wordsum64(7, &filler(97)), 0xc504_b22d_0ae7_4b7c);
    }

    #[test]
    fn wordsum64_catches_every_single_bit_flip_at_every_length() {
        // 0..=97 crosses every boundary: empty, partial word, whole words
        // on each lane, whole blocks, and a tail after three blocks
        for len in 0..=97 {
            let bytes = filler(len);
            let sum = wordsum64(0, &bytes);
            assert_ne!(wordsum64(1, &bytes), sum, "seed ignored at length {len}");
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(wordsum64(0, &flipped), sum, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn wordsum64_tells_lengths_and_lanes_apart() {
        // zero bytes are not free: every prefix of a zero buffer sums apart
        let zeros = [0u8; 98];
        let sums: Vec<u64> = (0..=98).map(|len| wordsum64(0, &zeros[..len])).collect();
        for (a, sum_a) in sums.iter().enumerate() {
            for sum_b in &sums[a + 1..] {
                assert_ne!(sum_a, sum_b);
            }
        }
        // two words trading places across lanes, within and across blocks
        let bytes = filler(96);
        for a in 0..12 {
            for b in (a + 1..12).filter(|b| b % 4 != a % 4) {
                let mut swapped = bytes.clone();
                for k in 0..8 {
                    swapped.swap(8 * a + k, 8 * b + k);
                }
                assert_ne!(wordsum64(0, &swapped), wordsum64(0, &bytes), "words {a} and {b}");
            }
        }
        // chaining covers buffers in order
        assert_ne!(
            wordsum64(wordsum64(0, b"head"), b"body"),
            wordsum64(wordsum64(0, b"body"), b"head")
        );
    }

    #[test]
    fn put_zeroed_hands_back_the_appended_bytes() {
        let mut w = ByteWriter::new();
        w.put_u8(9);
        w.put_zeroed(4).copy_from_slice(&7u32.to_le_bytes());
        assert!(w.put_zeroed(0).is_empty());
        w.put_zeroed(2)[1] = 5;
        assert_eq!(w.as_bytes(), &[9, 7, 0, 0, 0, 0, 5]);
    }

    #[test]
    fn checked_count_rejects_allocation_bombs() {
        let bytes = [0u8; 16];
        let r = ByteReader::new(&bytes);
        assert_eq!(r.checked_count(2, 8).unwrap(), 2);
        assert_eq!(r.checked_count(3, 8), Err(CodecError::BadLength));
        assert_eq!(r.checked_count(u64::MAX, 1), Err(CodecError::BadLength));
        assert_eq!(r.checked_count(16, 0).unwrap(), 16);
    }
}

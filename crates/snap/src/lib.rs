//! # cloudmc-snap
//!
//! Hand-rolled, versioned binary snapshot codec for the `cloudmc` workspace
//! (the build environment is offline, so no serde). A snapshot is one
//! contiguous byte buffer:
//!
//! ```text
//! +---------------------+----------------------------------------------+
//! | magic               | 8 bytes, b"CMCSNAP1"                         |
//! | format version      | u32 LE                                       |
//! | config fingerprint  | u64 LE (FNV-1a over the source config)       |
//! | body                | section markers + little-endian primitives   |
//! | checksum            | u64 LE, [`checksum`] of all preceding bytes  |
//! +---------------------+----------------------------------------------+
//! ```
//!
//! The body is a flat stream of fixed-width little-endian primitives
//! interleaved with *section markers* — length-prefixed ASCII names written
//! by [`SnapWriter::section`] and validated by [`SnapReader::section`]. A
//! reader that drifts out of phase with the writer (version skew, a buggy
//! hand-written [`Snap::load`]) fails on the next marker with a typed
//! [`SnapError::SectionMismatch`] naming the byte offset, instead of
//! silently misparsing unrelated state.
//!
//! Corruption anywhere in the file is caught up front: [`SnapReader::new`]
//! verifies length, magic, version, trailing checksum and fingerprint before
//! a single body byte is interpreted, so every failure mode maps to a typed
//! [`SnapError`] — never a panic.
//!
//! What goes into the body is declared once per type through the [`Snap`]
//! trait. This crate implements it for the primitives and the std container
//! shapes; a component struct lists its fields once in [`snap_fields!`] —
//! the saved ones in wire order, the skipped ones each with the reason — in
//! its own crate, so private fields stay private and this crate stays
//! dependency-free. The generated impl destructures the struct exhaustively,
//! which makes `rustc` the coverage checker: a field that is neither saved
//! nor skipped does not compile. The few impls written by hand (enums with
//! payloads, queues that serialize structurally, a cache's line array as one
//! run of fixed-width records through [`SnapWriter::bytes`] and
//! [`SnapReader::bytes`]) open with the same exhaustive pattern.
//!
//! A struct of statistics counters states its list through
//! [`counter_fields!`] instead, which expands to the same [`Snap`] impl plus
//! the struct's [`Counter`] impl — cross-channel `merge` and window `delta`
//! — so the three can never disagree about which fields exist.

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unimplemented,
    clippy::todo
)]
#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]

mod counter;
mod snap;

pub use counter::Counter;
pub use snap::{load_new, min_bytes_of, Snap};

use std::fmt;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"CMCSNAP1";

/// Current snapshot format version. Bump on any layout change.
///
/// Version 3: every sequence carries a length prefix (fixed-shape ones are
/// checked against the receiver), `Option` is a tag byte plus payload, and
/// payload-carrying enums nest inside it instead of sharing its tag.
///
/// Version 4: the backend section holds one controller and retry buckets
/// keyed `(channel, kind)`; each channel section ends with its due bound.
///
/// Version 5: the controller statistics block drops its six write-only
/// fields (per-core vectors, write-latency sum, per-tenant and per-channel
/// histograms).
///
/// Version 6: the system section drops its four per-address-region read
/// counters.
///
/// Version 7: the trailer is [`checksum`] (four word-parallel lanes) instead
/// of the byte-serial FNV-1a; the body bytes are unchanged.
///
/// Version 8: state held twice leaves the image. The system section drops
/// its map of outstanding reads (each completion carries its core and
/// block), the frontend section its per-core next-action cycles (derived
/// from the restored cores) and the fill queue its clamp base; MSHR entries
/// are stored in allocation order.
pub const FORMAT_VERSION: u32 = 8;

/// Byte tag that introduces a section marker in the body stream.
const SECTION_TAG: u8 = 0xA5;

/// Minimum plausible snapshot size: magic + version + fingerprint + checksum.
const ENVELOPE_BYTES: usize = 8 + 4 + 8 + 8;

/// Typed decode failure. Every variant names enough context (section and
/// byte offset where applicable) to localize the damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with [`MAGIC`] (or is shorter than it).
    BadMagic,
    /// The format version is not one this build can decode.
    UnsupportedVersion(u32),
    /// The snapshot was taken under a different configuration.
    FingerprintMismatch {
        /// Fingerprint of the configuration the restore was attempted with.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The trailing [`checksum`] does not match the file contents
    /// (bit-flip or splice anywhere in the envelope or body).
    ChecksumMismatch {
        /// Checksum recomputed over the file contents.
        computed: u64,
        /// Checksum stored in the trailer.
        stored: u64,
    },
    /// The buffer ends before the value being read (truncated file).
    Truncated {
        /// Section being decoded when the buffer ran out.
        section: String,
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// A decoded value is structurally impossible (e.g. a bool that is
    /// neither 0 nor 1, an enum discriminant out of range).
    BadValue {
        /// Section being decoded.
        section: String,
        /// Byte offset of the offending value.
        offset: usize,
        /// Human-readable description of the impossibility.
        what: String,
    },
    /// The next section marker names a different section than the decoder
    /// expected — reader and writer are out of phase.
    SectionMismatch {
        /// Section the decoder expected to find.
        expected: String,
        /// Section name (or its absence) actually found.
        found: String,
        /// Byte offset of the marker.
        offset: usize,
    },
    /// Decoding finished but body bytes remain before the checksum trailer.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
        /// Number of unconsumed body bytes.
        remaining: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic (not a cloudmc snapshot)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (expected {FORMAT_VERSION})"
                )
            }
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch (snapshot {found:#018x}, config {expected:#018x})"
            ),
            Self::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch (computed {computed:#018x}, stored {stored:#018x})"
            ),
            Self::Truncated { section, offset } => {
                write!(f, "truncated in section `{section}` at offset {offset}")
            }
            Self::BadValue {
                section,
                offset,
                what,
            } => write!(
                f,
                "bad value in section `{section}` at offset {offset}: {what}"
            ),
            Self::SectionMismatch {
                expected,
                found,
                offset,
            } => write!(
                f,
                "expected section `{expected}` at offset {offset}, found {found}"
            ),
            Self::TrailingBytes { offset, remaining } => write!(
                f,
                "{remaining} trailing body byte(s) left unread at offset {offset}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash — the configuration fingerprint function.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The image checksum: four independent lanes over little-endian `u64`
/// words, 32-byte blocks at a time, each word entering its lane through an
/// xxh64-style round; then the tail words and bytes, the length, and a final
/// avalanche.
///
/// Every step is a bijection in the word (or byte) it consumes and in the
/// state it carries, so changing any one word of the input always changes
/// the result. The round's rotate carries a word's high bits into the low
/// bits of the lane, so two flips of bit 63 in one lane do not cancel as
/// they would under a plain multiply.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, word: u64| {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = round(*lane, u64::from_le_bytes(*word));
        }
    }
    let [a, b, c, d] = lanes;
    let mut hash = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18));
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        hash ^= round(0, u64::from_le_bytes(*word));
        hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    for &byte in tail {
        hash ^= u64::from(byte).wrapping_mul(P5);
        hash = hash.rotate_left(11).wrapping_mul(P1);
    }
    hash = hash.wrapping_add(bytes.len() as u64);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Serializer: accumulates the envelope and body, then seals the buffer with
/// the trailing checksum in [`SnapWriter::finish`].
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a snapshot: writes magic, format version and the config
    /// fingerprint.
    #[must_use]
    pub fn new(fingerprint: u64) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        Self { buf }
    }

    /// Writes a section marker. Pair every call with
    /// [`SnapReader::section`] on the decode side.
    pub fn section(&mut self, name: &str) {
        debug_assert!(name.len() <= u8::MAX as usize && name.is_ascii());
        self.buf.push(SECTION_TAG);
        self.buf.push(name.len() as u8);
        self.buf.extend_from_slice(name.as_bytes());
    }

    /// Writes one `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes one `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes one `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes one `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes one `bool` as a single byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes one `f64` bit-exactly via [`f64::to_bits`].
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a run of `n` zero bytes, without a length prefix, and hands
    /// it back to be filled in place: one run of fixed-width records, read
    /// back by [`SnapReader::bytes`].
    pub fn bytes(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Body bytes written so far (diagnostics / size accounting).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written (never true: the envelope is written
    /// by [`SnapWriter::new`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seals the snapshot: appends the [`checksum`] of every byte written
    /// so far and returns the finished buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let checksum = checksum(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Deserializer over a sealed snapshot buffer.
///
/// [`SnapReader::new`] validates the whole envelope (magic, version,
/// checksum, fingerprint) before any body byte is interpreted; the cursor
/// methods then decode the body and fail typed on truncation, impossible
/// values, or out-of-phase section markers.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    /// Exclusive end of the body (start of the checksum trailer).
    body_end: usize,
    pos: usize,
    section: String,
}

impl<'a> SnapReader<'a> {
    /// Validates the envelope and positions the cursor at the first body
    /// byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::UnsupportedVersion`],
    /// [`SnapError::ChecksumMismatch`] or [`SnapError::FingerprintMismatch`]
    /// when the respective envelope field does not check out;
    /// [`SnapError::Truncated`] when the buffer is shorter than the minimum
    /// envelope.
    pub fn new(data: &'a [u8], expected_fingerprint: u64) -> Result<Self, SnapError> {
        if data.len() < ENVELOPE_BYTES {
            if data.len() < MAGIC.len() || data[..MAGIC.len()] != MAGIC {
                return Err(SnapError::BadMagic);
            }
            return Err(SnapError::Truncated {
                section: "envelope".to_owned(),
                offset: data.len(),
            });
        }
        if data[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        #[expect(
            clippy::expect_used,
            reason = "fixed-width slice of a length-checked buffer"
        )]
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        let body_end = data.len() - 8;
        #[expect(
            clippy::expect_used,
            reason = "fixed-width slice of a length-checked buffer"
        )]
        let stored = u64::from_le_bytes(data[body_end..].try_into().expect("8 bytes"));
        let computed = checksum(&data[..body_end]);
        if stored != computed {
            return Err(SnapError::ChecksumMismatch { computed, stored });
        }
        #[expect(
            clippy::expect_used,
            reason = "fixed-width slice of a length-checked buffer"
        )]
        let found = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
        if found != expected_fingerprint {
            return Err(SnapError::FingerprintMismatch {
                expected: expected_fingerprint,
                found,
            });
        }
        Ok(Self {
            data,
            body_end,
            pos: 20,
            section: "envelope".to_owned(),
        })
    }

    /// Current byte offset of the cursor (diagnostics).
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if n > self.body_end - self.pos {
            return Err(SnapError::Truncated {
                section: self.section.clone(),
                offset: self.pos,
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes a section marker, failing typed if the next bytes are not a
    /// marker for exactly `name`. Also becomes the section reported by
    /// subsequent truncation/value errors.
    ///
    /// # Errors
    ///
    /// [`SnapError::SectionMismatch`] when the marker is absent or names a
    /// different section; [`SnapError::Truncated`] when the buffer ends
    /// inside the marker.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let offset = self.pos;
        let mismatch = |found: String| SnapError::SectionMismatch {
            expected: name.to_owned(),
            found,
            offset,
        };
        let tag = self.take(1)?[0];
        if tag != SECTION_TAG {
            return Err(mismatch(format!("non-marker byte {tag:#04x}")));
        }
        let len = self.take(1)?[0] as usize;
        let bytes = self.take(len)?;
        if bytes != name.as_bytes() {
            return Err(mismatch(format!("`{}`", String::from_utf8_lossy(bytes))));
        }
        self.section = name.to_owned();
        Ok(())
    }

    /// Reads one `u8`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first.
    #[expect(clippy::expect_used, reason = "take(4) yields exactly four bytes")]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads one `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first.
    #[expect(clippy::expect_used, reason = "take(8) yields exactly eight bytes")]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads one `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first;
    /// [`SnapError::BadValue`] when the value overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let offset = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadValue {
            section: self.section.clone(),
            offset,
            what: format!("{v} overflows usize"),
        })
    }

    /// Reads one `bool`, rejecting any byte other than 0 or 1.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first;
    /// [`SnapError::BadValue`] for a byte that is neither 0 nor 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        let offset = self.pos;
        let byte = self.u8()?;
        self.decode_bool(byte, offset)
    }

    /// Decodes a `bool` byte found at `offset` — for one inside a run
    /// already taken by [`SnapReader::bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] at `offset` for a byte that is neither 0
    /// nor 1.
    pub fn decode_bool(&self, byte: u8, offset: usize) -> Result<bool, SnapError> {
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::BadValue {
                section: self.section.clone(),
                offset,
                what: format!("bool byte {other:#04x}"),
            }),
        }
    }

    /// Reads one `f64` bit-exactly via [`f64::from_bits`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads the next `n` bytes as they are: one run written by
    /// [`SnapWriter::bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first;
    /// [`SnapError::BadValue`] for invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.bounded_len(1)?;
        let offset = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::BadValue {
            section: self.section.clone(),
            offset,
            what: "invalid UTF-8".to_owned(),
        })
    }

    /// Reads a sequence length written by the writer's length prefix,
    /// rejecting lengths that cannot fit in the remaining body (`min_elem`
    /// is the smallest possible encoded element size in bytes). Guards Vec
    /// pre-allocation against absurd lengths.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first;
    /// [`SnapError::BadValue`] for an impossible length.
    pub fn bounded_len(&mut self, min_elem: usize) -> Result<usize, SnapError> {
        let offset = self.pos;
        let len = self.usize()?;
        let remaining = self.body_end - self.pos;
        if len
            .checked_mul(min_elem.max(1))
            .is_none_or(|b| b > remaining)
        {
            return Err(SnapError::BadValue {
                section: self.section.clone(),
                offset,
                what: format!("sequence length {len} exceeds remaining body {remaining}"),
            });
        }
        Ok(len)
    }

    /// Builds a [`SnapError::BadValue`] at the current cursor position —
    /// for [`Snap::load`] implementations rejecting impossible decoded values
    /// (enum discriminants out of range, inconsistent lengths).
    #[must_use]
    pub fn bad_value(&self, what: impl Into<String>) -> SnapError {
        SnapError::BadValue {
            section: self.section.clone(),
            offset: self.pos,
            what: what.into(),
        }
    }

    /// Declares decoding complete: the cursor must sit exactly at the
    /// checksum trailer.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] when body bytes remain unread.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos != self.body_end {
            return Err(SnapError::TrailingBytes {
                offset: self.pos,
                remaining: self.body_end - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed() -> Vec<u8> {
        let mut w = SnapWriter::new(0xDEAD_BEEF);
        w.section("alpha");
        w.u64(42);
        w.f64(1.5);
        w.bool(true);
        w.section("beta");
        w.str("hello");
        w.u32(7);
        w.bytes(3).copy_from_slice(b"xyz");
        w.finish()
    }

    #[test]
    fn round_trips_every_primitive() {
        let buf = sealed();
        let mut r = SnapReader::new(&buf, 0xDEAD_BEEF).unwrap();
        r.section("alpha").unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert!(r.bool().unwrap());
        r.section("beta").unwrap();
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.bytes(3).unwrap(), b"xyz");
        assert!(matches!(r.bytes(1), Err(SnapError::Truncated { .. })));
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = sealed();
        buf[0] ^= 0xFF;
        assert_eq!(
            SnapReader::new(&buf, 0xDEAD_BEEF).unwrap_err(),
            SnapError::BadMagic
        );
    }

    #[test]
    fn version_skew_is_typed() {
        let mut buf = sealed();
        buf[8] = 99;
        // Re-seal so the checksum stays valid and the version check fires.
        let body_end = buf.len() - 8;
        let sum = checksum(&buf[..body_end]).to_le_bytes();
        buf[body_end..].copy_from_slice(&sum);
        assert_eq!(
            SnapReader::new(&buf, 0xDEAD_BEEF).unwrap_err(),
            SnapError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let buf = sealed();
        assert!(matches!(
            SnapReader::new(&buf, 0x1234).unwrap_err(),
            SnapError::FingerprintMismatch {
                expected: 0x1234,
                ..
            }
        ));
    }

    /// A sealed image of 276 bytes: eight whole 32-byte blocks, then a tail
    /// of one word and four bytes ahead of the trailer.
    fn sealed_long() -> Vec<u8> {
        let mut w = SnapWriter::new(0xDEAD_BEEF);
        w.section("gamma");
        for i in 0..30u64 {
            w.u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        w.u8(3);
        w.finish()
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let buf = sealed_long();
        assert_eq!(buf.len(), 276);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    SnapReader::new(&bad, 0xDEAD_BEEF).is_err(),
                    "flip of bit {bit} at byte {byte} must not validate"
                );
            }
        }
    }

    /// Both bit-63 flips land in the same lane (words 32 bytes apart), where
    /// a multiply-only round would let the two carries out of the word
    /// cancel.
    #[test]
    fn two_top_bit_flips_in_one_lane_are_caught() {
        let data: Vec<u8> = (0..=255u8).collect();
        let sum = checksum(&data);
        for lane in 0..4 {
            for first in 0..8 {
                for second in first + 1..8 {
                    let mut bad = data.clone();
                    bad[first * 32 + lane * 8 + 7] ^= 0x80;
                    bad[second * 32 + lane * 8 + 7] ^= 0x80;
                    assert_ne!(
                        checksum(&bad),
                        sum,
                        "lane {lane}, blocks {first} and {second}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_adjacent_byte_pair_flip_is_caught() {
        let buf = sealed_long();
        for byte in 0..95 {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                bad[byte + 1] ^= 1 << bit;
                assert!(
                    SnapReader::new(&bad, 0xDEAD_BEEF).is_err(),
                    "flip of bit {bit} at bytes {byte} and {}",
                    byte + 1
                );
            }
        }
    }

    /// Zero bytes appended to or dropped from the end change the sum, at
    /// every tail length from a whole block down to none.
    #[test]
    fn trailing_zero_bytes_change_the_checksum() {
        let mut data: Vec<u8> = (1..=64u8).collect();
        data.extend([0; 40]);
        let sums: std::collections::BTreeSet<u64> = (64..=data.len())
            .map(|len| checksum(&data[..len]))
            .collect();
        assert_eq!(sums.len(), data.len() - 64 + 1);
    }

    #[test]
    fn every_truncation_is_caught() {
        let buf = sealed();
        for len in 0..buf.len() {
            assert!(
                SnapReader::new(&buf[..len], 0xDEAD_BEEF).is_err(),
                "truncation to {len} bytes must not validate"
            );
        }
    }

    #[test]
    fn section_mismatch_names_offset() {
        let buf = sealed();
        let mut r = SnapReader::new(&buf, 0xDEAD_BEEF).unwrap();
        let err = r.section("omega").unwrap_err();
        match err {
            SnapError::SectionMismatch {
                expected, offset, ..
            } => {
                assert_eq!(expected, "omega");
                assert_eq!(offset, 20);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let buf = sealed();
        let mut r = SnapReader::new(&buf, 0xDEAD_BEEF).unwrap();
        r.section("alpha").unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            SnapError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn display_names_section_and_offset() {
        let err = SnapError::Truncated {
            section: "rank".to_owned(),
            offset: 123,
        };
        let text = err.to_string();
        assert!(text.contains("rank") && text.contains("123"), "{text}");
    }
}

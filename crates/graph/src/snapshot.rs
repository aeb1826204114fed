//! Versioned binary snapshot container — the `.tss` sibling of the `.tsb`
//! edge codec ([`crate::binary`]).
//!
//! Estimator checkpoints (`ROADMAP` item 4: durable, mergeable state) are
//! serialized as a *sectioned container* so that every layer — the core
//! estimator pool, the sharded engine, the serve stream table — can own its
//! own payload without inventing a new framing discipline each time:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "TSS\0" (0x54 0x53 0x53 0x00)
//! 4       2     format version, u16 LE (2 written; 1 still read)
//! 6       2     section count, u16 LE
//! 8       …     sections, each:
//!                 id        u16 LE   (strictly increasing across the file)
//!                 length    u64 LE   (payload bytes)
//!                 payload   length bytes
//!                 checksum  u64 LE   (v2: XXH64, seed 0, over the payload;
//!                                     v1: FNV-1a 64 — read-only)
//! ```
//!
//! The version only selects the section checksum: version 2 uses XXH64,
//! which checks a multi-megabyte checkpoint at memory speed; version 1
//! used byte-serial FNV-1a and is still accepted so that state written by
//! an older build recovers. Writers emit version 2 only. Every other
//! version is corruption at offset 4.
//!
//! The discipline mirrors `.tsb`: little-endian fixed-width integers, a
//! magic + version header, and *no trailing bytes* — anything after the
//! last section is corruption. Section ids must be strictly increasing, so
//! a reordered (or duplicated) section is a structural error rather than a
//! silently different decode. Every way a snapshot can be damaged — bad
//! magic, unsupported version, truncation, checksum mismatch, out-of-order
//! sections, trailing garbage — surfaces as a typed [`SnapshotError`],
//! never a panic: restore paths run at daemon startup where an `unwrap`
//! would turn one bad file into a crash loop.
//!
//! The container does not interpret payloads. A [`SnapshotWriter`] appends
//! one container to the end of a caller's buffer, and
//! [`SnapshotWriter::section_with`] lets a layer write its payload in
//! place — nested containers included — so a whole checkpoint is encoded
//! into one buffer with no intermediate copies. Readers parse eagerly
//! ([`SnapshotReader::parse`] validates the whole container up front,
//! checksums included) and then pull sections by id, decoding fields
//! through [`SectionReader`], which reports absolute file offsets in its
//! errors.

use std::error::Error;
use std::fmt;
use std::io;

/// Leading magic of a serialized snapshot: `TSS\0`.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSS\0";

/// Container format version this build writes (XXH64 section checksums).
/// [`SNAPSHOT_VERSION_V1`] containers are still read.
pub const SNAPSHOT_VERSION: u16 = 2;

/// The previous container version (FNV-1a section checksums), accepted by
/// [`SnapshotReader::parse`] and never written.
pub const SNAPSHOT_VERSION_V1: u16 = 1;

/// Byte length of the container header (magic + version + section count).
pub const SNAPSHOT_HEADER_LEN: usize = 8;

/// Per-section overhead: id (2) + length (8) + checksum (8).
#[cfg(test)]
const SECTION_OVERHEAD: usize = 18;

/// How reading or interpreting a snapshot fails.
///
/// `Corrupt` means the *bytes* are damaged (offsets are absolute container
/// offsets); `Incompatible` means the bytes decode fine but describe a
/// state the receiver cannot adopt (wrong estimator kind, shard-count
/// mismatch, impossible field values); `Unsupported` means the estimator
/// or algorithm has no snapshot capability at all.
#[derive(Debug)]
pub enum SnapshotError {
    /// Structural damage at `offset`: bad magic, truncation, checksum
    /// mismatch, out-of-order sections, trailing bytes, short fields.
    Corrupt {
        /// Byte offset into the container where the damage was detected.
        offset: u64,
        /// Static description of what was expected there.
        reason: &'static str,
    },
    /// The snapshot decodes but cannot be applied to the receiver.
    Incompatible {
        /// What about the decoded state conflicts with the receiver.
        reason: String,
    },
    /// The estimator (or algorithm registry entry) does not implement
    /// snapshots; carries the name of what refused.
    Unsupported {
        /// Name of the estimator/algorithm lacking snapshot support.
        what: String,
    },
    /// An underlying I/O failure while reading or writing snapshot bytes.
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Corrupt { offset, reason } => {
                write!(f, "corrupt snapshot at byte {offset}: {reason}")
            }
            Self::Incompatible { reason } => {
                write!(f, "incompatible snapshot: {reason}")
            }
            Self::Unsupported { what } => {
                write!(f, "{what} does not support snapshots")
            }
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Shorthand used by the decode paths below.
fn corrupt(offset: u64, reason: &'static str) -> SnapshotError {
    SnapshotError::Corrupt { offset, reason }
}

/// FNV-1a 64-bit checksum — the section checksum of version-1 containers,
/// kept only to verify those when an older state directory is recovered.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap_or([0; 8]))
}

/// XXH64 with seed 0 — the section checksum of version-2 containers.
/// Four independent lanes consume 32-byte stripes, so the hash runs at
/// memory speed where byte-serial FNV-1a cannot. Like FNV-1a it detects
/// torn writes and bit rot; it is not a defence against tampering.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            let word = |i: usize| le_u64(&stripe[8 * i..8 * i + 8]);
            lanes = [
                xxh_round(lanes[0], word(0)),
                xxh_round(lanes[1], word(1)),
                xxh_round(lanes[2], word(2)),
                xxh_round(lanes[3], word(3)),
            ];
        }
        let [a, b, c, d] = lanes;
        let mut hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            hash = (hash ^ xxh_round(0, lane))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
        }
        hash
    } else {
        XXH_P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        hash ^= xxh_round(0, le_u64(&tail[..8]));
        hash = hash
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().unwrap_or([0; 4]));
        hash ^= u64::from(word).wrapping_mul(XXH_P1);
        hash = hash
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash ^= u64::from(byte).wrapping_mul(XXH_P5);
        hash = hash.rotate_left(11).wrapping_mul(XXH_P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_P3);
    hash ^ (hash >> 32)
}

/// Appends one snapshot container to the end of a caller's buffer. Append
/// sections in strictly increasing id order, then call
/// [`finish`](Self::finish).
///
/// The writer is also the container's rollback guard: if it is dropped
/// without `finish` — typically because a `?` returned early — the buffer
/// is truncated back to the length it had before [`new`](Self::new), so a
/// failed snapshot never leaves a half-written container behind.
#[derive(Debug)]
pub struct SnapshotWriter<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    sections: u16,
    last_id: Option<u16>,
    finished: bool,
}

impl<'a> SnapshotWriter<'a> {
    /// Start a [`SNAPSHOT_VERSION`] container at the end of `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // count, patched in finish()
        Self {
            buf,
            start,
            sections: 0,
            last_id: None,
            finished: false,
        }
    }

    /// Append one section whose payload is the bytes `fill` appends to
    /// the buffer it is handed. The payload is written in place: the
    /// length field is patched once `fill` returns, and the checksum is
    /// taken over the appended slice. `fill` may only append; if it fails
    /// (or shortens the buffer) the section is rolled back and the error
    /// returned. Ids must be strictly increasing; a misordered append is a
    /// programming error reported as `Incompatible` (the container is
    /// ours, so this never reaches a release decode path).
    pub fn section_with(
        &mut self,
        id: u16,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        if self.last_id.is_some_and(|last| id <= last) {
            return Err(SnapshotError::Incompatible {
                reason: format!("section id {id} appended out of order"),
            });
        }
        if self.sections == u16::MAX {
            return Err(SnapshotError::Incompatible {
                reason: "section count overflow".to_owned(),
            });
        }
        let frame = self.buf.len();
        self.buf.extend_from_slice(&id.to_le_bytes());
        self.buf.extend_from_slice(&0u64.to_le_bytes()); // length, patched below
        let payload_at = self.buf.len();
        let filled = fill(self.buf).and_then(|()| {
            self.buf
                .get(payload_at..)
                .map(|payload| (payload.len() as u64, xxh64(payload)))
                .ok_or_else(|| SnapshotError::Incompatible {
                    reason: format!("section {id} writer shortened the buffer"),
                })
        });
        let (len, sum) = match filled {
            Ok(framed) => framed,
            Err(e) => {
                self.buf.truncate(frame);
                return Err(e);
            }
        };
        self.buf[frame + 2..payload_at].copy_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.last_id = Some(id);
        self.sections += 1;
        Ok(())
    }

    /// Append one section holding a copy of `payload`.
    pub fn section(&mut self, id: u16, payload: &[u8]) -> Result<(), SnapshotError> {
        self.section_with(id, |buf| {
            buf.extend_from_slice(payload);
            Ok(())
        })
    }

    /// Patch the section count into the header, completing the container.
    pub fn finish(mut self) {
        let at = self.start + 6;
        self.buf[at..at + 2].copy_from_slice(&self.sections.to_le_bytes());
        self.finished = true;
    }
}

impl Drop for SnapshotWriter<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.buf.truncate(self.start);
        }
    }
}

/// A fully validated view over a snapshot container.
///
/// [`parse`](Self::parse) walks the whole container once — header, every
/// section frame, every checksum, the trailing-bytes probe — so by the
/// time a caller asks for a section, the only remaining failure modes are
/// *semantic* (missing section, bad field values), not structural.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// `(id, absolute payload offset, payload)` in file order.
    sections: Vec<(u16, u64, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Validate `bytes` as a complete snapshot container.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAPSHOT_HEADER_LEN {
            return Err(corrupt(bytes.len() as u64, "truncated snapshot header"));
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(corrupt(0, "bad snapshot magic (expected \"TSS\\0\")"));
        }
        let checksum: fn(&[u8]) -> u64 = match u16::from_le_bytes([bytes[4], bytes[5]]) {
            SNAPSHOT_VERSION => xxh64,
            SNAPSHOT_VERSION_V1 => fnv1a,
            _ => return Err(corrupt(4, "unsupported snapshot version")),
        };
        let count = u16::from_le_bytes([bytes[6], bytes[7]]);
        let mut sections = Vec::with_capacity(usize::from(count));
        let mut pos = SNAPSHOT_HEADER_LEN;
        let mut last_id: Option<u16> = None;
        for _ in 0..count {
            if bytes.len() - pos < 10 {
                return Err(corrupt(pos as u64, "truncated section header"));
            }
            let id = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            if last_id.is_some_and(|last| id <= last) {
                return Err(corrupt(pos as u64, "section ids out of order"));
            }
            last_id = Some(id);
            let len_bytes: [u8; 8] = bytes[pos + 2..pos + 10]
                .try_into()
                .map_err(|_| corrupt(pos as u64 + 2, "truncated section length"))?;
            let len = u64::from_le_bytes(len_bytes);
            let payload_at = pos + 10;
            let Ok(len_usize) = usize::try_from(len) else {
                return Err(corrupt(pos as u64 + 2, "section length overflows"));
            };
            if bytes.len() - payload_at < len_usize.saturating_add(8) {
                return Err(corrupt(payload_at as u64, "truncated section payload"));
            }
            let payload = &bytes[payload_at..payload_at + len_usize];
            let sum_at = payload_at + len_usize;
            let stored: [u8; 8] = bytes[sum_at..sum_at + 8]
                .try_into()
                .map_err(|_| corrupt(sum_at as u64, "truncated section checksum"))?;
            if u64::from_le_bytes(stored) != checksum(payload) {
                return Err(corrupt(sum_at as u64, "section checksum mismatch"));
            }
            sections.push((id, payload_at as u64, payload));
            pos = sum_at + 8;
        }
        if pos != bytes.len() {
            return Err(corrupt(pos as u64, "trailing bytes after last section"));
        }
        Ok(Self { sections })
    }

    /// Number of sections in the container.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the container carries no sections at all.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Look up a section by id, returning a [`SectionReader`] positioned at
    /// its payload. Absence is corruption: containers are written by us,
    /// so a missing required section means the file was damaged in a way
    /// the checksums cannot see (e.g. written by a different layer).
    pub fn section(&self, id: u16) -> Result<SectionReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .map(|&(_, offset, payload)| SectionReader::new(payload, offset))
            .ok_or(SnapshotError::Corrupt {
                offset: 0,
                reason: "required section missing",
            })
    }

    /// Whether a section with `id` is present.
    pub fn has_section(&self, id: u16) -> bool {
        self.sections.iter().any(|&(sid, _, _)| sid == id)
    }

    /// All sections in file order as `(id, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        self.sections.iter().map(|&(id, _, payload)| (id, payload))
    }
}

/// Field-by-field decoder over one section payload. Errors carry the
/// absolute container offset of the missing/short field, and
/// [`finish`](Self::finish) enforces the no-trailing-bytes rule inside the
/// section just as the container enforces it outside.
#[derive(Debug)]
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> SectionReader<'a> {
    fn new(bytes: &'a [u8], base: u64) -> Self {
        Self {
            bytes,
            pos: 0,
            base,
        }
    }

    /// Absolute container offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(corrupt(self.offset(), what));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Take a little-endian u16.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, SnapshotError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Take a little-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.bytes(8, what)?;
        let arr: [u8; 8] = b.try_into().unwrap_or([0; 8]);
        Ok(u64::from_le_bytes(arr))
    }

    /// Take `count` little-endian u64 values into a fresh Vec.
    pub fn u64_vec(&mut self, count: usize, what: &'static str) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.bytes(
            count
                .checked_mul(8)
                .ok_or_else(|| corrupt(self.offset(), what))?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
            .collect())
    }

    /// Take a u16-length-prefixed UTF-8 string (the `.tsp` string shape).
    pub fn string(&mut self, what: &'static str) -> Result<String, SnapshotError> {
        let len = usize::from(self.u16(what)?);
        let raw = self.bytes(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(self.base, "string is not UTF-8"))
    }

    /// Everything left in the section.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    /// Assert the section was consumed exactly; trailing bytes are corruption.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(self.offset(), "trailing bytes in section"));
        }
        Ok(())
    }
}

/// Append a little-endian u64 slice to a payload buffer — the writing
/// counterpart of [`SectionReader::u64_vec`].
pub fn put_u64s(buf: &mut Vec<u8>, values: &[u64]) {
    let start = buf.len();
    buf.resize(start + values.len() * 8, 0);
    for (slot, v) in buf[start..].chunks_exact_mut(8).zip(values) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append a u16-length-prefixed UTF-8 string; lengths above `u16::MAX`
/// are refused (the protocol's string shape).
pub fn put_string(buf: &mut Vec<u8>, s: &str) -> Result<(), SnapshotError> {
    let Ok(len) = u16::try_from(s.len()) else {
        return Err(SnapshotError::Incompatible {
            reason: format!("string of {} bytes exceeds the u16 length prefix", s.len()),
        });
    };
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_container() -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = SnapshotWriter::new(&mut bytes);
        w.section(1, &[0xAA, 0xBB]).unwrap();
        w.section(7, &42u64.to_le_bytes()).unwrap();
        w.finish();
        bytes
    }

    #[test]
    fn round_trips_sections_in_order() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.len(), 2);
        let collected: Vec<_> = r.iter().collect();
        assert_eq!(collected[0], (1, &[0xAA, 0xBB][..]));
        let mut s = r.section(7).unwrap();
        assert_eq!(s.u64("value").unwrap(), 42);
        s.finish().unwrap();
    }

    #[test]
    fn empty_container_is_valid() {
        let mut bytes = Vec::new();
        SnapshotWriter::new(&mut bytes).finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(r.is_empty());
        assert!(!r.has_section(0));
    }

    #[test]
    fn bad_magic_is_corrupt_at_offset_zero() {
        let mut bytes = two_section_container();
        bytes[0] = b'X';
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Corrupt { offset: 0, .. }) => {}
            other => panic!("expected bad-magic corruption, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_corrupt() {
        let mut bytes = two_section_container();
        for version in [0u16, 3, 0xFF] {
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    SnapshotReader::parse(&bytes),
                    Err(SnapshotError::Corrupt { offset: 4, .. })
                ),
                "version {version} must be refused at offset 4"
            );
        }
    }

    #[test]
    fn writer_emits_version_two() {
        let bytes = two_section_container();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), SNAPSHOT_VERSION);
        assert_eq!(SNAPSHOT_VERSION, 2);
    }

    /// A version-1 container as an older build wrote it: FNV-1a checksums.
    fn v1_container(sections: &[(u16, &[u8])]) -> Vec<u8> {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&(sections.len() as u16).to_le_bytes());
        for &(id, payload) in sections {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
        }
        bytes
    }

    #[test]
    fn version_one_containers_are_still_read_with_fnv1a() {
        let payload = 42u64.to_le_bytes();
        let v1 = v1_container(&[(1, &[0xAA, 0xBB]), (7, &payload)]);
        let r = SnapshotReader::parse(&v1).unwrap();
        let collected: Vec<_> = r.iter().collect();
        assert_eq!(collected, vec![(1, &[0xAA, 0xBB][..]), (7, &payload[..])]);
        // The same bytes under a v2 header fail: the checksum is per version.
        let mut relabelled = v1.clone();
        relabelled[4..6].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(&relabelled),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn every_single_bit_flip_in_a_v2_section_is_rejected() {
        // 109 payload bytes: three 32-byte stripes, then an 8-, a 4- and a
        // 1-byte tail, so every branch of the checksum sees a flip.
        let payload: Vec<u8> = (0..109u8).map(|i| i.wrapping_mul(37)).collect();
        let mut bytes = Vec::new();
        let mut w = SnapshotWriter::new(&mut bytes);
        w.section(5, &payload).unwrap();
        w.finish();
        SnapshotReader::parse(&bytes).unwrap();
        let payload_at = SNAPSHOT_HEADER_LEN + 10;
        for byte in payload_at..payload_at + payload.len() + 8 {
            for bit in 0..8 {
                let mut bent = bytes.clone();
                bent[byte] ^= 1 << bit;
                match SnapshotReader::parse(&bent) {
                    Err(SnapshotError::Corrupt { reason, .. }) => {
                        assert!(
                            reason.contains("checksum"),
                            "byte {byte} bit {bit}: {reason}"
                        );
                    }
                    other => panic!("flip of byte {byte} bit {bit} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn sections_written_in_place_nest_containers_without_copies() {
        let mut bytes = b"prefix".to_vec();
        let mut outer = SnapshotWriter::new(&mut bytes);
        outer
            .section_with(2, |buf| {
                let mut inner = SnapshotWriter::new(buf);
                inner.section(1, &[9, 9, 9])?;
                inner.finish();
                Ok(())
            })
            .unwrap();
        outer.finish();
        assert_eq!(&bytes[..6], b"prefix");
        let r = SnapshotReader::parse(&bytes[6..]).unwrap();
        let mut nested = r.section(2).unwrap();
        let inner = SnapshotReader::parse(nested.rest()).unwrap();
        assert_eq!(inner.iter().collect::<Vec<_>>(), vec![(1, &[9, 9, 9][..])]);
    }

    #[test]
    fn failed_sections_and_unfinished_writers_roll_back() {
        let mut bytes = b"keep".to_vec();
        {
            let mut w = SnapshotWriter::new(&mut bytes);
            w.section(1, &[1]).unwrap();
            let failed = w.section_with(2, |buf| {
                buf.extend_from_slice(&[0xEE; 40]);
                Err(SnapshotError::Unsupported {
                    what: "test".to_owned(),
                })
            });
            assert!(matches!(failed, Err(SnapshotError::Unsupported { .. })));
            // The failed section left nothing behind; the next id still fits.
            w.section(2, &[2]).unwrap();
            w.finish();
        }
        assert_eq!(SnapshotReader::parse(&bytes[4..]).unwrap().len(), 2);
        // A writer dropped before finish() removes its whole container.
        let complete = bytes.clone();
        {
            let mut w = SnapshotWriter::new(&mut bytes);
            w.section(1, &[1]).unwrap();
        }
        assert_eq!(bytes, complete);
    }

    #[test]
    fn every_truncation_length_is_corrupt_never_panics() {
        let bytes = two_section_container();
        for cut in 0..bytes.len() {
            match SnapshotReader::parse(&bytes[..cut]) {
                Err(SnapshotError::Corrupt { .. }) => {}
                other => panic!("truncation to {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn payload_bit_flip_fails_the_checksum() {
        let mut bytes = two_section_container();
        // First section payload starts after header (8) + id (2) + len (8).
        bytes[18] ^= 0x01;
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "reason was {reason:?}");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = two_section_container();
        bytes.push(0);
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("trailing"), "reason was {reason:?}");
            }
            other => panic!("expected trailing-bytes corruption, got {other:?}"),
        }
    }

    #[test]
    fn reordered_sections_are_corrupt() {
        // Build a container with ids (1, 7), then swap the section frames
        // byte-for-byte so it reads (7, 1).
        let bytes = two_section_container();
        let first = &bytes[8..8 + SECTION_OVERHEAD + 2]; // id 1, 2-byte payload
        let second = &bytes[8 + SECTION_OVERHEAD + 2..]; // id 7, 8-byte payload
        let mut swapped = bytes[..8].to_vec();
        swapped.extend_from_slice(second);
        swapped.extend_from_slice(first);
        match SnapshotReader::parse(&swapped) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("order"), "reason was {reason:?}");
            }
            other => panic!("expected out-of-order corruption, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_section_ids_rejected_by_writer_and_reader() {
        let mut bytes = Vec::new();
        let mut w = SnapshotWriter::new(&mut bytes);
        w.section(3, &[1]).unwrap();
        assert!(matches!(
            w.section(3, &[2]),
            Err(SnapshotError::Incompatible { .. })
        ));
    }

    #[test]
    fn missing_required_section_is_an_error() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(r.section(99), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn section_reader_reports_absolute_offsets() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(1).unwrap();
        // Payload of section 1 starts at offset 18; asking for 8 bytes out
        // of its 2 must point there.
        match s.u64("missing field") {
            Err(SnapshotError::Corrupt { offset, .. }) => assert_eq!(offset, 18),
            other => panic!("expected short-field corruption, got {other:?}"),
        }
    }

    #[test]
    fn section_trailing_bytes_are_corrupt() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(1).unwrap();
        let _ = s.u8("first").unwrap();
        assert!(matches!(s.finish(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn strings_and_u64_vectors_round_trip() {
        let mut payload = Vec::new();
        put_string(&mut payload, "stream-a").unwrap();
        put_u64s(&mut payload, &[1, u64::MAX, 0]);
        let mut bytes = Vec::new();
        let mut w = SnapshotWriter::new(&mut bytes);
        w.section(2, &payload).unwrap();
        w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(2).unwrap();
        assert_eq!(s.string("name").unwrap(), "stream-a");
        assert_eq!(s.u64_vec(3, "values").unwrap(), vec![1, u64::MAX, 0]);
        s.finish().unwrap();
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn display_formats_are_stable() {
        let c = SnapshotError::Corrupt {
            offset: 12,
            reason: "x",
        };
        assert_eq!(c.to_string(), "corrupt snapshot at byte 12: x");
        let u = SnapshotError::Unsupported {
            what: "exact".to_owned(),
        };
        assert_eq!(u.to_string(), "exact does not support snapshots");
    }
}

//! Stream checkpoints: everything needed to recreate a served stream —
//! its CREATE parameters, its replay offset, and its engine state — in one
//! `TSS\0` container, plus the state-directory layout `serve --state-dir`
//! persists them under.
//!
//! A checkpoint nests the engine's own [`TriangleEstimator::snapshot_into`]
//! container (kind `KIND_SHARDED`) inside a serve-level container of kind
//! [`KIND_STREAM`], so the corruption discipline is uniform: magic,
//! version, per-section checksums, no trailing bytes, and every failure a
//! typed [`SnapshotError`] — never a panic. The daemon writes the engine
//! in place inside the checkpoint's engine section, so a whole checkpoint
//! is encoded into one buffer. Restoring replays the CREATE
//! recipe *exactly* (same algorithm, seed, budget, shard count, window)
//! and then restores the engine, which is what makes a recovered stream's
//! estimate bit-identical to the uninterrupted run once the remaining
//! edges are replayed from [`StreamCheckpoint::replay_edges`].
//!
//! On disk, a stream named `s` lives at `<state-dir>/<hex(s)>.tsc` — the
//! name is hex-encoded so arbitrary UTF-8 stream names can never escape
//! the directory or collide with each other. Writes are atomic
//! (tempfile + rename), so a crash mid-checkpoint leaves the previous
//! checkpoint intact; recovery skips (and reports) any file that fails
//! validation rather than refusing to start.
//!
//! [`TriangleEstimator::snapshot_into`]: tristream_core::TriangleEstimator::snapshot_into

use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use tristream_graph::snapshot::{
    put_string, put_u64s, SnapshotError, SnapshotReader, SnapshotWriter,
};

/// Container kind tag for a serve stream checkpoint, disjoint from the
/// estimator kinds (`KIND_BULK` = 1, `KIND_SHARDED` = 2) so
/// `tristream_core::snapshot::peek_kind` tells the layers apart.
pub const KIND_STREAM: u8 = 3;

/// Section holding the stream's identity and CREATE parameters.
pub const SEC_STREAM_META: u16 = 1;

/// Section holding the nested engine snapshot, verbatim.
pub const SEC_ENGINE: u16 = 2;

/// File extension for checkpoints in a state directory ("tristream serve
/// checkpoint").
pub const CHECKPOINT_EXT: &str = "tsc";

/// One stream's complete persistent state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Stream name, exactly as CREATE received it.
    pub name: String,
    /// Registry algorithm name.
    pub algo: String,
    /// Root RNG seed from CREATE.
    pub seed: u64,
    /// Memory budget in words from CREATE.
    pub budget_words: u64,
    /// Shard count from CREATE (0 = server default, preserved raw so the
    /// rebuild resolves defaults identically).
    pub shards: u16,
    /// Window from CREATE (0 = registry default, preserved raw).
    pub window: u64,
    /// Edges ingested when the checkpoint was taken — the stream offset a
    /// `.tsb` replay resumes from after recovery.
    pub replay_edges: u64,
    /// EDGES frames ingested when the checkpoint was taken (drives the
    /// count-based checkpoint cadence across restarts).
    pub ingest_batches: u64,
    /// The engine's own snapshot container, verbatim.
    pub engine: Vec<u8>,
}

impl StreamCheckpoint {
    /// Serializes the checkpoint to its `TSS\0` container.
    pub fn encode(&self) -> Result<Vec<u8>, SnapshotError> {
        // 128 bytes cover the header, both section frames and META's
        // fixed-width fields.
        let mut out =
            Vec::with_capacity(128 + self.name.len() + self.algo.len() + self.engine.len());
        self.encode_into(&mut out, |buf| {
            buf.extend_from_slice(&self.engine);
            Ok(())
        })?;
        Ok(out)
    }

    /// The one stream-checkpoint encoder: appends the container to `out`
    /// with this checkpoint's META and, as the engine section, whatever
    /// `engine` appends in place. [`encode`](Self::encode) copies
    /// [`engine`](Self::engine) there; the daemon hands a closure that
    /// snapshots the live engine straight into the buffer (and leaves
    /// `engine` empty), so a checkpoint is encoded into one buffer.
    pub(crate) fn encode_into(
        &self,
        out: &mut Vec<u8>,
        engine: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut writer = SnapshotWriter::new(out);
        writer.section_with(SEC_STREAM_META, |meta| {
            meta.push(KIND_STREAM);
            put_string(meta, &self.name)?;
            put_string(meta, &self.algo)?;
            put_u64s(
                meta,
                &[
                    self.seed,
                    self.budget_words,
                    self.window,
                    self.replay_edges,
                    self.ingest_batches,
                ],
            );
            meta.extend_from_slice(&self.shards.to_le_bytes());
            Ok(())
        })?;
        writer.section_with(SEC_ENGINE, engine)?;
        writer.finish();
        Ok(())
    }

    /// Parses a checkpoint container, validating structure and checksums.
    /// The nested engine bytes are *not* decoded here — the engine
    /// validates them itself when the stream is rebuilt.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (mut cp, engine) = Self::decode_header(bytes)?;
        cp.engine = bytes[engine].to_vec();
        Ok(cp)
    }

    /// [`decode`](Self::decode) for a buffer the caller gives up: the
    /// engine bytes are moved to the front of `bytes` and kept, instead
    /// of being copied into a fresh allocation.
    fn decode_owned(mut bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let (mut cp, engine) = Self::decode_header(&bytes)?;
        bytes.truncate(engine.end);
        bytes.drain(..engine.start);
        cp.engine = bytes;
        Ok(cp)
    }

    /// Validates the container and decodes everything but the engine
    /// bytes, returning the checkpoint with an empty `engine` and where
    /// the engine section's payload lies in `bytes`.
    fn decode_header(bytes: &[u8]) -> Result<(Self, Range<usize>), SnapshotError> {
        let reader = SnapshotReader::parse(bytes)?;
        let mut meta = reader.section(SEC_STREAM_META)?;
        let kind = meta.u8("checkpoint kind tag")?;
        if kind != KIND_STREAM {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "expected a stream checkpoint (kind {KIND_STREAM}), found kind {kind}"
                ),
            });
        }
        let name = meta.string("stream name")?;
        let algo = meta.string("algorithm name")?;
        let seed = meta.u64("seed")?;
        let budget_words = meta.u64("budget words")?;
        let window = meta.u64("window")?;
        let replay_edges = meta.u64("replay edge offset")?;
        let ingest_batches = meta.u64("ingest batch count")?;
        let shards = meta.u16("shard count")?;
        meta.finish()?;
        let engine_section = reader.section(SEC_ENGINE)?;
        // Fits in usize: the offset indexes `bytes`.
        let start = engine_section.offset() as usize;
        let cp = Self {
            name,
            algo,
            seed,
            budget_words,
            shards,
            window,
            replay_edges,
            ingest_batches,
            engine: Vec::new(),
        };
        Ok((cp, start..start + engine_section.remaining()))
    }
}

/// The state-directory file name for a stream: hex of the name's UTF-8
/// bytes plus [`CHECKPOINT_EXT`], so any stream name maps to exactly one
/// flat, path-safe file.
pub fn checkpoint_file_name(stream: &str) -> String {
    let mut out = String::with_capacity(stream.len() * 2 + 4);
    for byte in stream.as_bytes() {
        out.push(char::from_digit(u32::from(byte >> 4), 16).unwrap_or('0'));
        out.push(char::from_digit(u32::from(byte & 0xF), 16).unwrap_or('0'));
    }
    out.push('.');
    out.push_str(CHECKPOINT_EXT);
    out
}

/// Inverts [`checkpoint_file_name`]; `None` for files that are not
/// well-formed checkpoint names (odd hex, wrong extension, invalid UTF-8).
pub fn stream_name_from_file(file_name: &str) -> Option<String> {
    let hex = file_name.strip_suffix(".tsc")?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    let digits = hex.as_bytes();
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        bytes.push((hi * 16 + lo) as u8);
    }
    String::from_utf8(bytes).ok()
}

/// The checkpoint path for a stream under a state directory.
pub fn checkpoint_path(state_dir: &Path, stream: &str) -> PathBuf {
    state_dir.join(checkpoint_file_name(stream))
}

/// Writes a checkpoint atomically: encode, write to a `.tmp` sibling,
/// rename over the final path. A process crash at any point leaves either
/// the old checkpoint or the new one — never a torn file — because rename
/// within a directory is atomic on every platform the workspace targets.
/// Nothing is fsynced, so a power loss can still lose the newest
/// checkpoint (`docs/OPERATIONS.md`).
pub fn write_checkpoint(state_dir: &Path, cp: &StreamCheckpoint) -> Result<PathBuf, SnapshotError> {
    write_checkpoint_bytes(state_dir, &cp.name, &cp.encode()?)
}

/// The atomic write behind [`write_checkpoint`], for bytes already encoded
/// as `stream`'s checkpoint container. Two writers of one stream must not
/// overlap — they share the `.tmp` sibling — so callers serialise per
/// stream (the table's per-entry checkpoint lock).
pub(crate) fn write_checkpoint_bytes(
    state_dir: &Path,
    stream: &str,
    bytes: &[u8],
) -> Result<PathBuf, SnapshotError> {
    let path = checkpoint_path(state_dir, stream);
    let tmp = path.with_extension("tmp");
    fs::create_dir_all(state_dir)?;
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Reads and validates one checkpoint file.
pub fn read_checkpoint(path: &Path) -> Result<StreamCheckpoint, SnapshotError> {
    StreamCheckpoint::decode_owned(fs::read(path)?)
}

/// What a state-directory scan found: the checkpoints that validated, in
/// deterministic (file-name) order, and the files that did not, with the
/// error each one failed on.
#[derive(Debug, Default)]
pub struct StateDirScan {
    /// Valid checkpoints, ordered by file name.
    pub checkpoints: Vec<StreamCheckpoint>,
    /// Files that look like checkpoints but failed validation, with why.
    pub skipped: Vec<(PathBuf, SnapshotError)>,
}

/// Scans a state directory for checkpoints. Only `*.tsc` files are
/// considered; `.tmp` leftovers from interrupted writes are ignored (the
/// rename never happened, so they were never the stream's checkpoint).
/// A missing directory is an empty scan, not an error — a fresh server
/// with a fresh state dir has nothing to recover.
pub fn scan_state_dir(state_dir: &Path) -> io::Result<StateDirScan> {
    let mut scan = StateDirScan::default();
    let entries = match fs::read_dir(state_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == CHECKPOINT_EXT) {
            paths.push(path);
        }
    }
    paths.sort();
    for path in paths {
        match read_checkpoint(&path) {
            Ok(cp) => scan.checkpoints.push(cp),
            Err(e) => scan.skipped.push((path, e)),
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamCheckpoint {
        StreamCheckpoint {
            name: "clicks".to_string(),
            algo: "neighborhood-bulk".to_string(),
            seed: 42,
            budget_words: 1 << 14,
            shards: 3,
            window: 0,
            replay_edges: 4_096,
            ingest_batches: 64,
            engine: vec![0xAB; 128],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tristream-checkpoint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoints_round_trip() {
        let cp = sample();
        let bytes = cp.encode().unwrap();
        assert_eq!(StreamCheckpoint::decode(&bytes).unwrap(), cp);
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let bytes = sample().encode().unwrap();
        // Truncation at every prefix length.
        for len in 0..bytes.len() {
            assert!(
                StreamCheckpoint::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        // Any single bit flip: either a checksum failure or (for length
        // fields) a structural failure — never Ok with different content,
        // never a panic.
        for byte in 0..bytes.len() {
            let mut bent = bytes.clone();
            bent[byte] ^= 1;
            match StreamCheckpoint::decode(&bent) {
                Err(_) => {}
                Ok(decoded) => panic!("bit flip at byte {byte} decoded as {decoded:?}"),
            }
        }
        // Trailing bytes.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            StreamCheckpoint::decode(&trailing),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn estimator_snapshots_are_not_stream_checkpoints() {
        use tristream_core::{BulkTriangleCounter, TriangleEstimator};
        let counter = BulkTriangleCounter::new(8, 1);
        let engine_bytes = counter.snapshot().unwrap();
        let err = StreamCheckpoint::decode(&engine_bytes).unwrap_err();
        match err {
            SnapshotError::Incompatible { reason } => {
                assert!(reason.contains("kind"), "{reason}");
            }
            // A bulk snapshot's META is not even shaped like a stream
            // META, so a Corrupt error is equally acceptable.
            SnapshotError::Corrupt { .. } => {}
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn file_names_are_hex_and_invert() {
        assert_eq!(checkpoint_file_name("s"), "73.tsc");
        for name in ["clicks", "s", "emoji-✓", "with/slash", "..", "a b"] {
            let file = checkpoint_file_name(name);
            assert!(
                file.strip_suffix(".tsc")
                    .unwrap()
                    .chars()
                    .all(|c| c.is_ascii_hexdigit()),
                "{file}"
            );
            assert_eq!(stream_name_from_file(&file).as_deref(), Some(name));
        }
        assert_eq!(stream_name_from_file("xyz.tsc"), None);
        assert_eq!(stream_name_from_file("7.tsc"), None);
        assert_eq!(stream_name_from_file("73.tsb"), None);
    }

    #[test]
    fn write_scan_round_trip_skips_corrupt_files() {
        let dir = temp_dir("scan");
        let good = sample();
        write_checkpoint(&dir, &good).unwrap();
        let mut other = sample();
        other.name = "other".to_string();
        let other_path = write_checkpoint(&dir, &other).unwrap();
        // Corrupt the second file in place.
        let mut bytes = fs::read(&other_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&other_path, &bytes).unwrap();
        // A stray tmp file from a torn write must be ignored entirely.
        fs::write(dir.join("deadbeef.tmp"), b"partial").unwrap();

        let scan = scan_state_dir(&dir).unwrap();
        assert_eq!(scan.checkpoints, vec![good]);
        assert_eq!(scan.skipped.len(), 1);
        assert_eq!(scan.skipped[0].0, other_path);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewriting_a_checkpoint_replaces_it_atomically() {
        let dir = temp_dir("rewrite");
        let mut cp = sample();
        write_checkpoint(&dir, &cp).unwrap();
        cp.replay_edges = 9_999;
        let path = write_checkpoint(&dir, &cp).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().replay_edges, 9_999);
        // Exactly one .tsc file: the rename replaced, not duplicated.
        let scan = scan_state_dir(&dir).unwrap();
        assert_eq!(scan.checkpoints.len(), 1);
        assert!(scan.skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_state_dir_is_an_empty_scan() {
        let dir = temp_dir("missing");
        let scan = scan_state_dir(&dir).unwrap();
        assert!(scan.checkpoints.is_empty() && scan.skipped.is_empty());
    }
}

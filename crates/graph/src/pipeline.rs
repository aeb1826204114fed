//! Pipelined, multi-threaded `.tsb` decoding.
//!
//! The batched binary reader ([`read_edges_binary_batched`](crate::binary::read_edges_binary_batched)) interleaves
//! I/O and decoding on the caller's thread: read a block, decode it, hand
//! the batch over, repeat. Once the estimator side runs on its own worker
//! pool (the sharded engine), that single decode thread becomes the
//! bottleneck — the workers idle while the consumer thread parses records.
//!
//! This module splits ingestion into a small pipeline with the same
//! bounded-channel backpressure discipline as
//! [`ShardedEngine`](../../tristream_core/engine/index.html):
//!
//! ```text
//!            raw blocks (bounded, depth 4/worker)       decoded batches
//!  reader ──┬───────────────► decode worker 0 ──────────┬──► consumer
//!  thread   └───────────────► decode worker W-1 ────────┘    (in order)
//!            round-robin                       round-robin
//! ```
//!
//! * The **reader thread** owns the `Read` and does nothing but
//!   `read_exact` one raw block per output batch, dealing blocks
//!   round-robin to the workers. Sequential I/O never waits on parsing.
//! * Each **decode worker** turns raw blocks into `Vec<Edge>` batches.
//!   Record validation (self-loop rejection, exact error offsets) is
//!   byte-for-byte identical to the single-threaded reader.
//! * The **consumer** ([`PipelinedTsbBatches`]) collects batches in the
//!   same round-robin order the blocks were dealt, so batch boundaries,
//!   batch contents and error positions are exactly those of
//!   [`read_edges_binary_batched`](crate::binary::read_edges_binary_batched)
//!   — estimates over the stream are
//!   unchanged by construction, and `tests/` pins it by property.
//!
//! Buffers are recycled against the flow of data (workers return raw
//! block buffers to the reader; consumers may return batch buffers via
//! [`PipelinedTsbBatches::recycle`]), every buffer pool is filled to its
//! high-water mark at construction, and the channels are the in-crate
//! bounded rings of the private `ring` module — so with a recycling
//! consumer the steady state allocates nothing per batch, on any
//! thread. All channels
//! are bounded: a slow consumer stalls the reader after
//! `2 × depth × workers` blocks, never an unbounded queue.

use crate::binary::{
    binary_error, decode_edge, read_failed, read_tsb_header, TsbHeader, HEADER_LEN,
};
use crate::edge::Edge;
use crate::error::GraphError;
use crate::ring;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::thread::JoinHandle;

/// Bound of every inter-stage channel, per worker — the same depth the
/// sharded engine uses, and for the same reason: deep enough to ride out
/// scheduling jitter, shallow enough that a stalled consumer stops the
/// reader almost immediately.
const CHANNEL_DEPTH: usize = 4;

/// One undecoded block of records, as dealt by the reader thread.
struct RawBlock {
    /// `count × record_len` bytes, exactly as read from the stream.
    bytes: Vec<u8>,
    /// Stream-wide index of the first record in `bytes`, for error offsets.
    first_record: u64,
}

/// Decodes every record of a raw block into `out`. `out` is a recycled
/// buffer already holding capacity for a full batch, so the steady-state
/// loop below never touches the heap.
fn decode_block(
    bytes: &[u8],
    first_record: u64,
    rec: usize,
    out: &mut Vec<Edge>,
) -> Result<(), GraphError> {
    // analyze: region(no-alloc)
    for (i, raw) in bytes.chunks_exact(rec).enumerate() {
        let offset = HEADER_LEN + (first_record + i as u64) * rec as u64;
        out.push(decode_edge(raw, offset)?);
    }
    // analyze: endregion
    Ok(())
}

/// The reader-thread body: deal one raw block per output batch,
/// round-robin across the workers, then run the trailing-bytes check.
/// Any error is sent *in sequence* to the worker that would have received
/// the next block, so the consumer sees it at exactly the batch index the
/// single-threaded reader would have reported it at.
fn read_blocks<R: Read>(
    mut reader: R,
    header: TsbHeader,
    batch_size: usize,
    raw_txs: &[ring::Sender<Result<RawBlock, GraphError>>],
    recycle_rx: &ring::Receiver<Vec<u8>>,
) {
    let rec = header.record_len();
    let total = header.edges;
    let mut decoded = 0u64;
    let mut widx = 0usize;
    while decoded < total {
        let count = (total - decoded).min(batch_size as u64) as usize;
        let mut bytes = recycle_rx.try_recv().unwrap_or_default();
        bytes.resize(count * rec, 0);
        let msg = match reader.read_exact(&mut bytes) {
            Ok(()) => Ok(RawBlock {
                bytes,
                first_record: decoded,
            }),
            Err(e) => Err(read_failed(
                e,
                HEADER_LEN + decoded * rec as u64,
                "truncated record data",
            )),
        };
        let failed = msg.is_err();
        if raw_txs[widx].send(msg).is_err() || failed {
            return;
        }
        decoded += count as u64;
        widx = (widx + 1) % raw_txs.len();
    }
    // After the final record, any further byte is corruption — mirror of
    // the single-threaded reader's trailing check, surfaced as the final
    // item in sequence.
    let mut probe = [0u8; 1];
    let trailing = match reader.read(&mut probe) {
        Ok(0) => return,
        Ok(_) => binary_error(
            HEADER_LEN + total * rec as u64,
            "trailing bytes after the final record",
        ),
        Err(e) => GraphError::Io(e),
    };
    let _ = raw_txs[widx].send(Err(trailing));
}

/// The decode-worker body: raw blocks in, decoded batches out, raw
/// buffers recycled back to the reader. Exits when either side hangs up.
fn decode_worker(
    rec: usize,
    raw_rx: ring::Receiver<Result<RawBlock, GraphError>>,
    out_tx: ring::Sender<Result<Vec<Edge>, GraphError>>,
    back_rx: ring::Receiver<Vec<Edge>>,
    recycle_tx: ring::Sender<Vec<u8>>,
) {
    while let Some(msg) = raw_rx.recv() {
        let result = match msg {
            Ok(block) => {
                let mut batch = back_rx.try_recv().unwrap_or_default();
                batch.clear();
                let decoded = decode_block(&block.bytes, block.first_record, rec, &mut batch);
                // Hand the raw buffer back for the reader to refill; if its
                // return lane is full the buffer is simply dropped.
                let _ = recycle_tx.try_send(block.bytes);
                decoded.map(|()| batch)
            }
            Err(e) => Err(e),
        };
        if out_tx.send(result).is_err() {
            return;
        }
    }
}

/// Streaming batched `.tsb` reader with pipelined multi-threaded decoding:
/// the drop-in parallel counterpart of
/// [`read_edges_binary_batched`](crate::binary::read_edges_binary_batched).
/// Yields the *same* batches in the same order with the same error
/// behaviour; only the wall-clock attribution changes (I/O and decoding
/// overlap with the consumer).
///
/// `workers` decode threads are spawned (clamped to at least one), plus
/// one reader thread. The header is read and validated eagerly, so a
/// malformed file fails here rather than on the first batch.
///
/// Iteration stops permanently after the first error.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn read_edges_binary_pipelined<R: Read + Send + 'static>(
    reader: R,
    batch_size: usize,
    workers: usize,
) -> Result<PipelinedTsbBatches, GraphError> {
    assert!(batch_size > 0, "batch size must be positive");
    let mut reader = reader;
    let header = read_tsb_header(&mut reader)?;
    let workers = workers.max(1);
    let rec = header.record_len();

    let mut raw_txs = Vec::with_capacity(workers);
    let mut out_rxs = Vec::with_capacity(workers);
    let mut back_txs = Vec::with_capacity(workers);
    let mut threads = Vec::with_capacity(workers + 1);
    // Raw buffers in flight: `CHANNEL_DEPTH` queued plus one being decoded
    // per worker, plus one in the reader's hands. The pool is pre-filled
    // below with one spare per worker on top of that, so the reader's
    // `try_recv` never comes up empty mid-stream and the return lane can
    // always absorb a buffer — after construction the pipeline performs
    // zero block-buffer allocations (`tests/alloc_steady_state.rs`).
    let raw_pool = (CHANNEL_DEPTH + 2) * workers + 1;
    let (recycle_tx, recycle_rx) = ring::channel::<Vec<u8>>(raw_pool);
    for _ in 0..raw_pool {
        // Cannot fail: the receiver is alive and the ring was sized to
        // hold the whole pool.
        let _ = recycle_tx.send(Vec::with_capacity(batch_size * rec));
    }
    for w in 0..workers {
        let (raw_tx, raw_rx) = ring::channel(CHANNEL_DEPTH);
        let (out_tx, out_rx) = ring::channel(CHANNEL_DEPTH);
        // Batch buffers in flight per worker: `CHANNEL_DEPTH` queued in
        // the out lane, one in the consumer's hands, one being filled.
        // Pre-filled one deeper than that, so a recycling consumer never
        // finds the lane full and the worker's `try_recv` never comes up
        // empty — zero batch-buffer allocations after construction.
        let batch_pool = CHANNEL_DEPTH + 3;
        let (back_tx, back_rx) = ring::channel(batch_pool);
        for _ in 0..batch_pool {
            // Cannot fail: the receiver is alive and the ring was sized
            // to hold the whole pool.
            let _ = back_tx.send(Vec::with_capacity(batch_size));
        }
        let recycle_tx = recycle_tx.clone();
        raw_txs.push(raw_tx);
        out_rxs.push(out_rx);
        back_txs.push(back_tx);
        #[allow(clippy::expect_used)]
        threads.push(
            std::thread::Builder::new()
                .name(format!("tsb-decode-{w}"))
                .spawn(move || decode_worker(rec, raw_rx, out_tx, back_rx, recycle_tx))
                // analyze: allow(P1, reason = "spawn fails only on OS thread exhaustion at construction time, before any stream state exists to lose")
                .expect("spawning tsb decode worker"),
        );
    }
    drop(recycle_tx);
    #[allow(clippy::expect_used)]
    threads.push(
        std::thread::Builder::new()
            .name("tsb-read".to_string())
            .spawn(move || read_blocks(reader, header, batch_size, &raw_txs, &recycle_rx))
            // analyze: allow(P1, reason = "spawn fails only on OS thread exhaustion at construction time, before any stream state exists to lose")
            .expect("spawning tsb reader thread"),
    );

    Ok(PipelinedTsbBatches {
        header,
        out_rxs,
        back_txs,
        next_worker: 0,
        done: false,
        threads,
    })
}

/// Opens `path` and returns a [pipelined reader](read_edges_binary_pipelined).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn read_edges_binary_pipelined_file<P: AsRef<Path>>(
    path: P,
    batch_size: usize,
    workers: usize,
) -> Result<PipelinedTsbBatches, GraphError> {
    read_edges_binary_pipelined(File::open(path)?, batch_size, workers)
}

/// Iterator of `Vec<Edge>` batches produced by
/// [`read_edges_binary_pipelined`]. Fused: the first error (or the end of
/// the stream) ends iteration permanently. Dropping it mid-stream hangs up
/// the channels and joins the pipeline threads.
pub struct PipelinedTsbBatches {
    header: TsbHeader,
    out_rxs: Vec<ring::Receiver<Result<Vec<Edge>, GraphError>>>,
    back_txs: Vec<ring::Sender<Vec<Edge>>>,
    /// Index of the worker whose output is next in stream order.
    next_worker: usize,
    done: bool,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PipelinedTsbBatches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedTsbBatches")
            .field("header", &self.header)
            .field("workers", &self.out_rxs.len())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl PipelinedTsbBatches {
    /// The validated header of the underlying stream.
    pub fn header(&self) -> TsbHeader {
        self.header
    }

    /// Number of decode workers behind this reader.
    pub fn workers(&self) -> usize {
        self.out_rxs.len()
    }

    /// Returns a consumed batch buffer to the worker that produced the
    /// most recently yielded batch, so its capacity is reused for an
    /// upcoming batch instead of being reallocated. Entirely optional —
    /// dropping batches is always correct — but a consumer that recycles
    /// makes the whole pipeline allocation-free in the steady state
    /// (asserted by `tests/alloc_steady_state.rs`). If the return lane is
    /// full the buffer is dropped.
    pub fn recycle(&self, batch: Vec<Edge>) {
        let producer = (self.next_worker + self.back_txs.len() - 1) % self.back_txs.len();
        let _ = self.back_txs[producer].try_send(batch);
    }
}

impl Iterator for PipelinedTsbBatches {
    type Item = Result<Vec<Edge>, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.out_rxs[self.next_worker].recv() {
            Some(Ok(batch)) => {
                self.next_worker = (self.next_worker + 1) % self.out_rxs.len();
                Some(Ok(batch))
            }
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            // All senders gone: the reader finished cleanly (or the
            // pipeline already reported its error) — end of stream.
            None => {
                self.done = true;
                None
            }
        }
    }
}

impl Drop for PipelinedTsbBatches {
    fn drop(&mut self) {
        // Hang up every channel first so all three stages observe a
        // disconnect and exit their loops, then join.
        self.out_rxs.clear();
        self.back_txs.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{read_edges_binary_batched, write_edges_binary, TSB_VERSION};
    use std::io::Cursor;

    fn path_edges(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    fn encode(edges: &[Edge]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_edges_binary(edges, &mut buf).unwrap();
        buf
    }

    /// Batches (and the terminal error, if any) from either reader,
    /// normalised for comparison.
    type Run = (Vec<Vec<Edge>>, Option<String>);

    fn run_reference(buf: &[u8], batch: usize) -> Run {
        let mut batches = Vec::new();
        let mut err = None;
        for item in read_edges_binary_batched(buf, batch).unwrap() {
            match item {
                Ok(b) => batches.push(b),
                Err(e) => err = Some(e.to_string()),
            }
        }
        (batches, err)
    }

    fn run_pipelined(buf: &[u8], batch: usize, workers: usize) -> Run {
        let mut batches = Vec::new();
        let mut err = None;
        for item in read_edges_binary_pipelined(Cursor::new(buf.to_vec()), batch, workers).unwrap()
        {
            match item {
                Ok(b) => batches.push(b),
                Err(e) => err = Some(e.to_string()),
            }
        }
        (batches, err)
    }

    #[test]
    fn pipelined_batches_match_the_single_threaded_reader() {
        let edges = path_edges(1000);
        let buf = encode(&edges);
        for workers in [1, 2, 3, 5] {
            for batch in [1, 7, 128, 1000, 2048] {
                assert_eq!(
                    run_pipelined(&buf, batch, workers),
                    run_reference(&buf, batch),
                    "workers = {workers}, batch = {batch}"
                );
            }
        }
    }

    #[test]
    fn pipelined_reader_validates_the_header_eagerly() {
        assert!(matches!(
            read_edges_binary_pipelined(&b"not a tsb file"[..], 8, 2),
            Err(GraphError::Binary { .. })
        ));
    }

    #[test]
    fn pipelined_reader_reports_errors_at_the_same_batch_as_the_reference() {
        // Truncated final record.
        let buf = encode(&path_edges(100));
        let truncated = &buf[..buf.len() - 3];
        for workers in [1, 2, 4] {
            assert_eq!(
                run_pipelined(truncated, 16, workers),
                run_reference(truncated, 16),
                "workers = {workers}"
            );
        }
        // A self-loop mid-stream: prior batches survive, the error carries
        // the record's offset.
        let mut bad = encode(&path_edges(64));
        let rec_off = HEADER_LEN as usize + 40 * 16;
        bad[rec_off..rec_off + 8].copy_from_slice(&7u64.to_le_bytes());
        bad[rec_off + 8..rec_off + 16].copy_from_slice(&7u64.to_le_bytes());
        for workers in [1, 3] {
            let (batches, err) = run_pipelined(&bad, 16, workers);
            assert_eq!(
                (batches, err),
                run_reference(&bad, 16),
                "workers = {workers}"
            );
        }
        // Trailing bytes surface after the final full batch.
        let mut padded = encode(&path_edges(32));
        padded.extend_from_slice(&[0u8; 2]);
        for workers in [1, 2] {
            assert_eq!(
                run_pipelined(&padded, 8, workers),
                run_reference(&padded, 8),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn pipelined_reader_handles_empty_streams_and_headers() {
        let buf = encode(&[]);
        let mut it = read_edges_binary_pipelined(Cursor::new(buf.clone()), 4, 2).unwrap();
        assert_eq!(it.header().version, TSB_VERSION);
        assert_eq!(it.header().edges, 0);
        assert_eq!(it.workers(), 2);
        assert!(it.next().is_none());
        assert!(it.next().is_none(), "fused after the end");
    }

    #[test]
    fn dropping_a_pipelined_reader_mid_stream_joins_cleanly() {
        let buf = encode(&path_edges(10_000));
        let mut it = read_edges_binary_pipelined(Cursor::new(buf.clone()), 64, 3).unwrap();
        assert!(it.next().unwrap().is_ok());
        drop(it); // must not deadlock or leak threads
    }

    #[test]
    fn recycling_batches_is_optional_and_safe() {
        let edges = path_edges(512);
        let buf = encode(&edges);
        let mut it = read_edges_binary_pipelined(Cursor::new(buf.clone()), 32, 2).unwrap();
        let mut flat = Vec::new();
        while let Some(batch) = it.next() {
            let batch = batch.unwrap();
            flat.extend_from_slice(&batch);
            it.recycle(batch);
        }
        assert_eq!(flat, edges);
    }
}

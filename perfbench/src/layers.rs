//! In-process layer probes for the traced run: the workload's edges run
//! through each layer's public functions, one call per span, so every
//! layer's time is measured where its work happens.

use crate::stats::median;
use crate::trace::{now, Tracer};
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use tristream_core::{
    shard_seed, BulkTriangleCounter, Level1Strategy, ShardedEstimator, TriangleEstimator,
};
use tristream_graph::binary::read_edges_binary_batched_file;
use tristream_graph::{frame, Edge};
use tristream_serve::checkpoint::{read_checkpoint, write_checkpoint};
use tristream_serve::table::{checkpoint_stream, ingest_batch, query_stream};
use tristream_serve::{CreateStream, Request, StreamTable};

/// Single-edge batches timed after the stream to isolate the per-batch
/// `O(r)` sweep.
const SWEEP_REPS: usize = 9;
/// Checkpoint encode/write/restore repetitions.
const CHECKPOINT_REPS: usize = 5;

/// An engine configuration: the pool, its split and the batch size.
#[derive(Debug, Clone, Copy)]
pub struct EngineShape<'a> {
    pub tsb: &'a Path,
    pub batch: usize,
    pub shards: usize,
    pub per_shard: usize,
    pub seed: u64,
    /// The offline `count --parallel` pools skip level-1 draws
    /// geometrically; the registry's (served) pools draw per estimator.
    pub strategy: Level1Strategy,
}

impl EngineShape<'_> {
    fn counter(&self, seed: u64) -> BulkTriangleCounter {
        BulkTriangleCounter::new(self.per_shard, seed).with_level1_strategy(self.strategy)
    }
}

/// What the `graph.binary`, `core.bulk` and `core.engine` probes found.
#[derive(Debug, Clone)]
pub struct EngineLayers {
    pub decode_ns_per_edge: f64,
    pub decode_share: f64,
    pub fold_ns_per_edge: f64,
    pub sweep_ns_per_estimator: f64,
    pub single_thread_edges_per_s: f64,
    pub triangle_holders: u64,
    pub triangle_holders_frac: f64,
    pub submit_wait_s: f64,
    pub sync_s: f64,
    pub shard_skew: f64,
    pub speedup_vs_single: f64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Milliseconds since `start`.
fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Decodes the shape's `.tsb` batch by batch, feeds the batches to a
/// sharded engine, then runs each shard's pool alone on one thread.
pub fn probe_engine(shape: &EngineShape<'_>, tracer: &mut Tracer) -> Result<EngineLayers, String> {
    let mut source =
        read_edges_binary_batched_file(shape.tsb, shape.batch).map_err(|e| e.to_string())?;
    let mut batches: Vec<Vec<Edge>> = Vec::new();
    let decode_start = now();
    loop {
        let id = batches.len() as u64;
        match tracer.time("graph.binary.decode", id, None, || source.next()) {
            None => break,
            Some(batch) => batches.push(batch.map_err(|e| e.to_string())?),
        }
    }
    let decode_ns = decode_start.elapsed().as_nanos() as u64;
    let edges: u64 = batches.iter().map(|b| b.len() as u64).sum();
    if edges == 0 {
        return Err("empty probe input".to_string());
    }

    let mut engine =
        ShardedEstimator::from_factory(shape.shards, shape.seed, |seed| shape.counter(seed));
    let mut submit_ns = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let t = now();
        tracer.time("core.engine.process_batch", i as u64, None, || {
            engine.process_batch(batch)
        });
        submit_ns += t.elapsed().as_nanos() as u64;
    }
    let t = now();
    std::hint::black_box(tracer.time("core.engine.estimate", 0, None, || engine.estimate()));
    let sync_ns = t.elapsed().as_nanos() as u64;
    drop(engine);

    let top = batches.iter().flatten().map(|e| e.v().0).max().unwrap_or(0) + 1;
    let mut busy = Vec::with_capacity(shape.shards);
    let mut sweep = Vec::with_capacity(shape.shards);
    let mut holders = 0u64;
    for shard in 0..shape.shards {
        let mut counter = shape.counter(shard_seed(shape.seed, shard));
        let t = now();
        for (i, batch) in batches.iter().enumerate() {
            tracer.time("core.bulk.process_batch", i as u64, None, || {
                counter.process_batch(batch)
            });
        }
        busy.push(t.elapsed().as_nanos() as u64);
        // Estimators that hold a triangle at the end of the stream, before
        // the sweep probes below add edges.
        holders += counter.estimators_with_triangle() as u64;
        let reps = (0..SWEEP_REPS as u64)
            .map(|k| {
                let probe = [Edge::new(top + 2 * k, top + 2 * k + 1)];
                let t = now();
                tracer.time("core.bulk.sweep", k, None, || counter.process_batch(&probe));
                t.elapsed().as_nanos() as f64
            })
            .collect::<Vec<_>>();
        sweep.push(median(&reps).unwrap_or(f64::NAN));
        std::hint::black_box(counter.estimate());
    }
    let busy_total: u64 = busy.iter().sum();
    let sweep_total: f64 = sweep.iter().sum();
    let r = (shape.per_shard * shape.shards) as f64;
    let engine_ns = submit_ns + sync_ns;
    let fold_ns = busy_total as f64 - batches.len() as f64 * sweep_total;
    Ok(EngineLayers {
        decode_ns_per_edge: decode_ns as f64 / edges as f64,
        decode_share: decode_ns as f64 / (decode_ns + engine_ns) as f64,
        fold_ns_per_edge: fold_ns / edges as f64,
        sweep_ns_per_estimator: sweep_total / r,
        single_thread_edges_per_s: edges as f64 / secs(busy_total),
        triangle_holders: holders,
        triangle_holders_frac: holders as f64 / r,
        submit_wait_s: secs(submit_ns),
        sync_s: secs(sync_ns),
        shard_skew: *busy.iter().max().unwrap_or(&1) as f64
            / (*busy.iter().min().unwrap_or(&1)).max(1) as f64,
        speedup_vs_single: busy_total as f64 / engine_ns as f64,
    })
}

/// A writer that counts `write` calls, to see how a frame reaches a socket.
#[derive(Debug, Default)]
pub struct CountingWriter {
    pub bytes: Vec<u8>,
    pub writes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the `serve.protocol`, `graph.frame` and `serve.checkpoint` probes
/// found.
#[derive(Debug, Clone)]
pub struct ServeLayers {
    pub encode_ns_per_edge: f64,
    pub decode_ns_per_edge: f64,
    pub writes_per_frame: f64,
    pub bytes_per_edge: f64,
    pub checkpoint_bytes: f64,
    pub bytes_per_memory_word: f64,
    pub encode_ms: f64,
    pub write_ms: f64,
    pub restore_ms: f64,
    /// Round trips that did not reproduce their input.
    pub mismatches: u64,
}

/// Replays `frames` (in order) through EDGES encode, frame write and read,
/// EDGES decode and an in-process stream table built from `spec`, then
/// checkpoints that stream and restores it from `state_dir`.
pub fn probe_serve(
    frames: &[Vec<Edge>],
    spec: &CreateStream,
    state_dir: &Path,
    tracer: &mut Tracer,
) -> Result<ServeLayers, String> {
    let table = StreamTable::new();
    table
        .create(
            &spec.name,
            &spec.algo,
            spec.seed,
            spec.budget_words,
            spec.shards,
            spec.window,
        )
        .map_err(|e| e.to_string())?;
    let entry = table.require(&spec.name).map_err(|e| e.to_string())?;
    let mut mismatches = 0;
    let (mut encode_ns, mut decode_ns, mut writes, mut bytes, mut edges) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, frame_edges) in frames.iter().enumerate() {
        let id = i as u64;
        let root = tracer.open("replay.frame", id, None);
        let request = Request::Edges {
            name: spec.name.clone(),
            edges: frame_edges.clone(),
        };
        let t = now();
        let payload = tracer
            .time("serve.protocol.encode", id, root, || {
                request.encode_payload()
            })
            .map_err(|e| e.to_string())?;
        encode_ns += t.elapsed().as_nanos() as u64;
        let mut wire = CountingWriter::default();
        tracer
            .time("graph.frame.write", id, root, || {
                frame::write_frame(&mut wire, request.frame_type().byte(), &payload)
            })
            .map_err(|e| e.to_string())?;
        writes += wire.writes;
        bytes += wire.bytes.len() as u64;
        let (frame_type, body) = tracer
            .time("graph.frame.read", id, root, || {
                frame::read_frame(&mut wire.bytes.as_slice())
            })
            .map_err(|e| e.to_string())?
            .ok_or("frame vanished")?;
        let t = now();
        let decoded = tracer
            .time("serve.protocol.decode", id, root, || {
                Request::decode(frame_type, &body)
            })
            .map_err(|e| e.to_string())?;
        decode_ns += t.elapsed().as_nanos() as u64;
        if decoded != request {
            mismatches += 1;
        }
        tracer.time("serve.table.ingest", id, root, || {
            ingest_batch(&entry, frame_edges)
        });
        tracer.close(root);
        edges += frame_edges.len() as u64;
    }
    let (estimate, _, memory_words) = query_stream(&entry);
    let checkpoint = checkpoint_stream(&entry).map_err(|e| e.to_string())?;
    let (mut enc, mut wr, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    let mut checkpoint_bytes = 0;
    for k in 0..CHECKPOINT_REPS as u64 {
        let t = now();
        let encoded = tracer
            .time("serve.checkpoint.encode", k, None, || checkpoint.encode())
            .map_err(|e| e.to_string())?;
        enc.push(ms(t));
        checkpoint_bytes = encoded.len();
        let t = now();
        let path = tracer
            .time("serve.checkpoint.write", k, None, || {
                write_checkpoint(state_dir, &checkpoint)
            })
            .map_err(|e| e.to_string())?;
        wr.push(ms(t));
        let t = now();
        let restored = StreamTable::new();
        tracer.time("serve.checkpoint.restore", k, None, || {
            read_checkpoint(&path)
                .map_err(|e| e.to_string())
                .and_then(|cp| restored.create_restored(&cp).map_err(|e| e.to_string()))
        })?;
        rest.push(ms(t));
        let again = restored.require(&spec.name).map_err(|e| e.to_string())?;
        if query_stream(&again).0.to_bits() != estimate.to_bits() {
            mismatches += 1;
        }
    }
    let n = frames.len().max(1) as f64;
    Ok(ServeLayers {
        encode_ns_per_edge: encode_ns as f64 / edges as f64,
        decode_ns_per_edge: decode_ns as f64 / edges as f64,
        writes_per_frame: writes as f64 / n,
        bytes_per_edge: bytes as f64 / edges as f64,
        checkpoint_bytes: checkpoint_bytes as f64,
        bytes_per_memory_word: checkpoint_bytes as f64 / memory_words.max(1) as f64,
        encode_ms: median(&enc).unwrap_or(f64::NAN),
        write_ms: median(&wr).unwrap_or(f64::NAN),
        restore_ms: median(&rest).unwrap_or(f64::NAN),
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counting_writer_sees_every_write_call() {
        let mut w = CountingWriter::default();
        frame::write_frame(&mut w, 3, b"payload").unwrap();
        assert_eq!(w.bytes.len(), 5 + 7);
        assert!(w.writes >= 1);
    }
}

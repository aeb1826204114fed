//! Multi-core triangle counting.
//!
//! The paper's conclusion (§6) observes that maintaining the estimate is
//! CPU-bound even when streaming from disk, and points to follow-up work on
//! a parallel, cache-efficient variant of neighborhood sampling. This module
//! provides the natural shared-nothing parallelisation: the estimator pool
//! is partitioned into independent shards, each shard advances over the same
//! batch on its own long-lived worker thread, and queries aggregate across
//! shards. Because estimators never interact, the sharded counter computes
//! exactly the same *distribution* of estimates as the sequential one —
//! each shard is simply a smaller, independent estimator.
//!
//! Worker threads are created **once**, when the [`ShardedEstimator`] is
//! built, and are fed batches over bounded channels;
//! [`process_batch`](ShardedEstimator::process_batch) only copies the batch
//! and enqueues it, so the per-batch hot path contains no thread spawn or
//! join. Queries synchronise with the workers first, so results are
//! indistinguishable from fully synchronous processing.

use crate::bulk::{BulkTriangleCounter, Level1Strategy};
use crate::engine::ShardedEngine;
use crate::snapshot::SEC_SHARD_BASE;
use crate::traits::{TriangleEstimator, BYTES_PER_WORD};
use tristream_graph::snapshot::{put_u64s, SnapshotError, SnapshotReader, SnapshotWriter};
use tristream_graph::Edge;
use tristream_sample::mean;

/// Multiplier used to decorrelate per-shard seeds (the golden-ratio mixing
/// constant). Part of the counter's deterministic seeding contract: shard
/// `i` is seeded with [`shard_seed`]`(seed, i)` = `seed + i * SHARD_SEED_STRIDE`.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9;

/// The per-shard seed under the deterministic sharding contract: shard
/// `shard` of a counter constructed with root seed `seed` is seeded
/// `seed + shard · `[`SHARD_SEED_STRIDE`] (wrapping). This helper is the
/// single implementation of that arithmetic — `S1-seeding` requires all
/// derivation sites to reference it — so reference implementations stay
/// estimate-for-estimate comparable by construction.
#[inline]
#[must_use]
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add(shard as u64 * SHARD_SEED_STRIDE)
}

/// A sharded, multi-threaded wrapper around *any* [`TriangleEstimator`]:
/// `shards` independent instances built by a caller-supplied factory, each
/// advanced on its own persistent worker thread, with the final estimate
/// the plain mean of the shard estimates.
///
/// The factory receives each shard's seed under the sharding contract:
/// shard `i` gets [`shard_seed`]`(seed, i)`. With a single shard the
/// wrapper is *bit-identical* to the sequential estimator fed the same
/// batches — the property the parity tests pin.
///
/// [`bulk`](ShardedEstimator::bulk) builds the pool behind
/// `tristream-cli count --parallel`; `count --parallel --algo <name>` and
/// the serve daemon plug the registry's boxed constructors in as
/// `ShardedEstimator<Box<dyn TriangleEstimator + Send>>`.
#[derive(Debug)]
pub struct ShardedEstimator<C: TriangleEstimator + Send + 'static> {
    engine: ShardedEngine<C>,
    edges_seen: u64,
}

impl ShardedEstimator<BulkTriangleCounter> {
    /// A bulk triangle counter with (at least) `r` estimators split evenly
    /// across `shards` shards: `ceil(r / shards)` estimators per shard,
    /// each resampling level 1 with [`Level1Strategy::GeometricSkip`].
    /// The effective pool can be slightly larger than requested.
    ///
    /// ```
    /// use tristream_core::{ShardedEstimator, TriangleEstimator};
    ///
    /// let mut counter = ShardedEstimator::bulk(4_096, 4, 7);
    /// let stream = tristream_gen::planted_triangles(20, 40, 1);
    /// for batch in stream.batches(128) {
    ///     counter.process_batch(batch);
    /// }
    /// let pool: usize = counter.map_shards(|shard| shard.num_estimators()).iter().sum();
    /// assert_eq!(pool, 4_096);
    /// assert!(counter.estimate() >= 0.0);
    /// // Workers are joined when `counter` goes out of scope.
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `r` or `shards` is zero.
    pub fn bulk(r: usize, shards: usize, seed: u64) -> Self {
        assert!(r > 0, "at least one estimator is required");
        assert!(shards > 0, "at least one shard is required");
        let per_shard = r.div_ceil(shards);
        Self::from_factory(shards, seed, |shard_seed| {
            BulkTriangleCounter::new(per_shard, shard_seed)
                .with_level1_strategy(Level1Strategy::GeometricSkip)
        })
    }
}

impl<C: TriangleEstimator + Send + 'static> ShardedEstimator<C> {
    /// Builds `shards` estimators via `factory` — called with each shard's
    /// decorrelated seed, in shard order — and spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn from_factory(shards: usize, seed: u64, mut factory: impl FnMut(u64) -> C) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let counters = (0..shards).map(|i| factory(shard_seed(seed, i))).collect();
        Self {
            engine: ShardedEngine::new(counters),
            edges_seen: 0,
        }
    }

    /// Number of shards (persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Enqueues one batch on every shard without waiting for processing.
    pub fn process_batch(&mut self, batch: &[Edge]) {
        if batch.is_empty() {
            return;
        }
        self.engine.submit(batch);
        self.edges_seen += batch.len() as u64;
    }

    /// Ingests a whole *batch source* — any fallible iterator of edge
    /// batches, such as
    /// `tristream_graph::io::read_edge_list_batched_file` or
    /// `tristream_graph::binary::read_edges_binary_batched_file` — and
    /// returns the number of edges ingested. The source's first error is
    /// propagated; edges ingested before it remain counted.
    pub fn process_source<E>(
        &mut self,
        source: impl IntoIterator<Item = Result<Vec<Edge>, E>>,
    ) -> Result<u64, E> {
        crate::engine::drain_batch_source(source, |batch| self.process_batch(batch))
    }

    /// Waits for in-flight batches, then applies `f` to every shard's
    /// estimator in shard order and returns the results.
    pub fn map_shards<T>(&self, f: impl FnMut(&C) -> T) -> Vec<T> {
        self.engine.map_shards(f)
    }

    /// Merge snapshots taken by `N` *independent* single-process
    /// estimators into this `N`-shard estimator, under the shard-seed
    /// contract: process `i` must have been seeded `shard_seed(seed, i)`
    /// (the seed [`from_factory`](Self::from_factory) hands shard `i`) and
    /// fed the same stream as its peers. Because every shard sees the
    /// whole stream and the combined estimate is the shard mean, the
    /// merged estimator's `estimate()` is bit-identical to the
    /// single-process `N`-shard run over that stream.
    ///
    /// Snapshot `i` replaces shard `i`'s state. All snapshots must agree
    /// on `edges_seen` (they claim to describe the same stream) and the
    /// count must match [`num_shards`](Self::num_shards); mismatches are
    /// [`SnapshotError::Incompatible`] and leave earlier shards already
    /// restored — callers treat a failed merge as fatal for the receiver,
    /// exactly as a failed [`TriangleEstimator::restore`] would be.
    pub fn merge_shard_snapshots(&mut self, snapshots: &[Vec<u8>]) -> Result<(), SnapshotError> {
        if snapshots.len() != self.num_shards() {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "merging {} snapshots into {} shards",
                    snapshots.len(),
                    self.num_shards()
                ),
            });
        }
        let mut edges = None;
        for (i, bytes) in snapshots.iter().enumerate() {
            let claimed = snapshot_edges_seen(bytes)?;
            match edges {
                None => edges = Some(claimed),
                Some(prev) if prev != claimed => {
                    return Err(SnapshotError::Incompatible {
                        reason: format!(
                            "snapshot {i} claims {claimed} edges seen but its peers claim {prev}; \
                             merged shards must describe the same stream"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        let mut results = Vec::with_capacity(snapshots.len());
        self.engine.map_shards_mut(|shard| {
            let i = results.len();
            results.push(shard.restore(&snapshots[i]));
            results.len()
        });
        for result in results {
            result?;
        }
        self.edges_seen = edges.unwrap_or(0);
        Ok(())
    }
}

/// The snapshot section holding shard `shard`'s nested snapshot:
/// [`SEC_SHARD_BASE`]` + shard`, or [`SnapshotError::Incompatible`] when
/// that leaves the `u16` section id space.
fn shard_section(shard: usize) -> Result<u16, SnapshotError> {
    u16::try_from(shard)
        .ok()
        .and_then(|offset| SEC_SHARD_BASE.checked_add(offset))
        .ok_or_else(|| SnapshotError::Incompatible {
            reason: format!("shard {shard} exceeds the snapshot section id space"),
        })
}

/// Decode the `edges_seen` a (bulk or sharded) estimator snapshot claims.
fn snapshot_edges_seen(bytes: &[u8]) -> Result<u64, SnapshotError> {
    let reader = SnapshotReader::parse(bytes)?;
    let mut meta = reader.section(crate::snapshot::SEC_META)?;
    let kind = meta.u8("snapshot kind tag")?;
    match kind {
        crate::snapshot::KIND_BULK => {
            let _r = meta.u64("estimator count")?;
            let _seed = meta.u64("construction seed")?;
            meta.u64("edges seen")
        }
        crate::snapshot::KIND_SHARDED => {
            let _shards = meta.u64("shard count")?;
            meta.u64("edges seen")
        }
        other => Err(SnapshotError::Incompatible {
            reason: format!("unknown snapshot kind {other}"),
        }),
    }
}

impl<C: TriangleEstimator + Send + 'static> TriangleEstimator for ShardedEstimator<C> {
    fn process_edge(&mut self, edge: Edge) {
        self.process_batch(&[edge]);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        self.process_batch(edges);
    }

    /// Mean of the shard estimates. Every shard sees the whole stream, so
    /// each shard estimate is already unbiased and the mean only reduces
    /// variance; with equal per-shard pools this equals pooling all
    /// estimators in one counter.
    fn estimate(&self) -> f64 {
        mean(&self.map_shards(|shard| shard.estimate()))
    }

    fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Sum of the shard estimators' state.
    fn memory_words(&self) -> usize {
        self.map_shards(|shard| shard.memory_words()).iter().sum()
    }

    /// Snapshots are supported exactly when every shard supports them.
    fn supports_snapshot(&self) -> bool {
        self.map_shards(|shard| shard.supports_snapshot())
            .iter()
            .all(|&s| s)
    }

    /// A `KIND_SHARDED` container nesting each shard's own snapshot (see
    /// [`crate::snapshot`] for the layout). Each shard writes its
    /// container in place inside its section, into a buffer reserved once
    /// from [`memory_words`](TriangleEstimator::memory_words).
    fn snapshot_into(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        // Bytes a shard's snapshot carries beyond its resident words:
        // framing, META and the bulk counter's RNG refill buffer.
        const SHARD_OVERHEAD: usize = 4096;
        let shards = self.num_shards();
        out.reserve(self.memory_words() * BYTES_PER_WORD + shards * SHARD_OVERHEAD);
        let mut writer = SnapshotWriter::new(out);
        writer.section_with(crate::snapshot::SEC_META, |meta| {
            meta.push(crate::snapshot::KIND_SHARDED);
            put_u64s(meta, &[shards as u64, self.edges_seen]);
            Ok(())
        })?;
        let mut shard = 0;
        self.map_shards(|counter| {
            let section = shard_section(shard)?;
            shard += 1;
            writer.section_with(section, |buf| counter.snapshot_into(buf))
        })
        .into_iter()
        .collect::<Result<(), _>>()?;
        writer.finish();
        Ok(())
    }

    /// Restore from a `KIND_SHARDED` snapshot with a matching shard
    /// count: shard `i` is handed nested snapshot `i`, and `edges_seen`
    /// is adopted from the container.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let reader = SnapshotReader::parse(snapshot)?;
        let mut meta = reader.section(crate::snapshot::SEC_META)?;
        let kind = meta.u8("snapshot kind tag")?;
        if kind != crate::snapshot::KIND_SHARDED {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "expected a sharded snapshot (kind {}), found kind {kind}",
                    crate::snapshot::KIND_SHARDED
                ),
            });
        }
        let shards = meta.u64("shard count")?;
        let edges_seen = meta.u64("edges seen")?;
        meta.finish()?;
        if shards != self.num_shards() as u64 {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "snapshot holds {shards} shards but this estimator runs {}",
                    self.num_shards()
                ),
            });
        }
        let mut nested = Vec::with_capacity(self.num_shards());
        for i in 0..self.num_shards() {
            nested.push(reader.section(shard_section(i)?)?.rest());
        }
        let mut results = Vec::with_capacity(self.num_shards());
        self.engine.map_shards_mut(|shard| {
            let i = results.len();
            results.push(shard.restore(nested[i]));
        });
        for result in results {
            result?;
        }
        self.edges_seen = edges_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tristream_graph::exact::count_triangles;
    use tristream_graph::Adjacency;

    type Bulk = ShardedEstimator<BulkTriangleCounter>;

    fn pool_size(counter: &Bulk) -> usize {
        counter
            .map_shards(|shard| shard.num_estimators())
            .iter()
            .sum()
    }

    fn raw_estimates(counter: &Bulk) -> Vec<f64> {
        counter.map_shards(|shard| shard.raw_estimates()).concat()
    }

    fn feed(counter: &mut Bulk, edges: &[Edge], batch_size: usize) {
        for batch in edges.chunks(batch_size) {
            counter.process_batch(batch);
        }
    }

    /// The shard pool [`ShardedEstimator::bulk`] documents, built on the
    /// caller's thread.
    fn bulk_shards(r: usize, shards: usize, seed: u64) -> Vec<BulkTriangleCounter> {
        (0..shards)
            .map(|i| {
                BulkTriangleCounter::new(r.div_ceil(shards), shard_seed(seed, i))
                    .with_level1_strategy(Level1Strategy::GeometricSkip)
            })
            .collect()
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = ShardedEstimator::bulk(10, 0, 1);
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = ShardedEstimator::bulk(0, 2, 1);
    }

    #[test]
    fn pool_is_split_across_shards() {
        let c = ShardedEstimator::bulk(1_000, 4, 1);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(pool_size(&c), 1_000);
        // Uneven splits round up.
        let c = ShardedEstimator::bulk(10, 3, 1);
        assert_eq!(pool_size(&c), 12);
    }

    #[test]
    fn parallel_estimate_matches_truth_on_a_clustered_graph() {
        let stream = tristream_gen::holme_kim(400, 4, 0.6, 3);
        let truth = count_triangles(&Adjacency::from_stream(&stream)) as f64;
        let mut c = ShardedEstimator::bulk(24_000, 6, 5);
        feed(&mut c, stream.edges(), 8_192);
        let est = c.estimate();
        assert_eq!(c.edges_seen(), stream.len() as u64);
        assert!(
            (est - truth).abs() < 0.2 * truth,
            "parallel estimate {est} vs truth {truth}"
        );
        let holders: usize = c
            .map_shards(|shard| shard.estimators_with_triangle())
            .iter()
            .sum();
        assert!(holders > 0);
    }

    #[test]
    fn single_shard_degenerates_to_the_sequential_counter() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut parallel = ShardedEstimator::bulk(512, 1, 7);
        feed(&mut parallel, stream.edges(), 64);
        let mut sequential =
            BulkTriangleCounter::new(512, 7).with_level1_strategy(Level1Strategy::GeometricSkip);
        sequential.process_stream(stream.edges(), 64);
        assert_eq!(parallel.estimate(), sequential.estimate());
    }

    /// The pre-engine execution model: fresh scoped threads per batch over
    /// the same per-shard counters. Kept as a reference implementation for
    /// the equivalence test below.
    fn scoped_thread_estimates(
        r: usize,
        shards: usize,
        seed: u64,
        edges: &[Edge],
        batch_size: usize,
    ) -> Vec<f64> {
        let mut pool = bulk_shards(r, shards, seed);
        for batch in edges.chunks(batch_size) {
            std::thread::scope(|scope| {
                for shard in &mut pool {
                    scope.spawn(|| shard.process_batch(batch));
                }
            });
        }
        pool.iter().flat_map(|s| s.raw_estimates()).collect()
    }

    #[test]
    fn persistent_pool_matches_scoped_threads_and_sequential_shards_exactly() {
        // The shard-seed contract, checked at the strongest possible
        // level: counters seeded `shard_seed(seed, i)` and fed on the
        // caller's thread reproduce every per-estimator estimate of the
        // worker pool bit for bit. 600 / 7 does not divide evenly, so the
        // rounded-up split is part of what is pinned.
        let stream = tristream_gen::holme_kim(250, 3, 0.5, 19);
        let (r, shards, seed, batch) = (600, 7, 23, 113);

        let mut persistent = ShardedEstimator::bulk(r, shards, seed);
        feed(&mut persistent, stream.edges(), batch);
        let persistent_raw = raw_estimates(&persistent);

        let scoped_raw = scoped_thread_estimates(r, shards, seed, stream.edges(), batch);

        let mut sequential_raw = Vec::new();
        for mut counter in bulk_shards(r, shards, seed) {
            counter.process_stream(stream.edges(), batch);
            sequential_raw.extend(counter.raw_estimates());
        }

        assert_eq!(persistent_raw.len(), shards * r.div_ceil(shards));
        assert_eq!(persistent_raw, scoped_raw);
        assert_eq!(persistent_raw, sequential_raw);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut c = ShardedEstimator::bulk(64, 4, 3);
        c.process_batch(&[]);
        assert_eq!(c.edges_seen(), 0);
        assert_eq!(c.map_shards(|shard| shard.edges_seen()), vec![0; 4]);
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn process_source_matches_process_stream_bit_for_bit() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut by_stream = ShardedEstimator::bulk(512, 2, 7);
        feed(&mut by_stream, stream.edges(), 64);
        let mut by_source = ShardedEstimator::bulk(512, 2, 7);
        let edges = by_source
            .process_source(
                stream
                    .batches(64)
                    .map(|b| Ok::<_, std::io::Error>(b.to_vec())),
            )
            .unwrap();
        assert_eq!(edges, stream.len() as u64);
        assert_eq!(by_source.edges_seen(), by_stream.edges_seen());
        assert_eq!(raw_estimates(&by_source), raw_estimates(&by_stream));
    }

    #[test]
    fn process_source_propagates_errors_and_keeps_the_prefix_counted() {
        let good: Vec<Edge> = (0..8u64).map(|i| Edge::new(i, i + 1)).collect();
        let mut c = ShardedEstimator::bulk(64, 2, 3);
        let result = c.process_source(vec![Ok(good.clone()), Err("gone"), Ok(good)]);
        assert_eq!(result, Err("gone"));
        assert_eq!(c.edges_seen(), 8, "prefix before the error stays counted");
        assert_eq!(c.map_shards(|shard| shard.edges_seen()), vec![8, 8]);
    }

    #[test]
    fn sharded_estimator_single_shard_is_bit_identical_to_the_sequential_counter() {
        // The generic factory path must preserve the engine's transport
        // transparency: one shard, same seed, same batch boundaries ⇒ the
        // same bits as the sequential estimator, under either level-1
        // strategy.
        let stream = tristream_gen::planted_triangles(20, 60, 17);
        for strategy in [Level1Strategy::PerEstimator, Level1Strategy::GeometricSkip] {
            let mut sharded = ShardedEstimator::from_factory(1, 13, |seed| {
                BulkTriangleCounter::new(256, seed).with_level1_strategy(strategy)
            });
            let mut sequential = BulkTriangleCounter::new(256, 13).with_level1_strategy(strategy);
            for batch in stream.batches(37) {
                sharded.process_batch(batch);
                sequential.process_batch(batch);
            }
            assert_eq!(
                TriangleEstimator::estimate(&sharded).to_bits(),
                TriangleEstimator::estimate(&sequential).to_bits(),
                "strategy {strategy:?}"
            );
            assert_eq!(TriangleEstimator::edges_seen(&sharded), stream.len() as u64);
            assert_eq!(
                TriangleEstimator::memory_words(&sharded),
                TriangleEstimator::memory_words(&sequential)
            );
        }
    }

    #[test]
    fn single_shard_per_estimator_strategy_matches_the_sequential_counter() {
        // Per-estimator parity: with PerEstimator level-1 sampling, a single
        // shard built through the factory keeps every estimator's raw value
        // bit-identical to the sequential counter (same seed, same batching).
        let stream = tristream_gen::planted_triangles(20, 60, 17);
        let mut sharded = ShardedEstimator::from_factory(1, 13, |seed| {
            BulkTriangleCounter::new(256, seed).with_level1_strategy(Level1Strategy::PerEstimator)
        });
        assert_eq!(
            sharded.map_shards(|shard| shard.level1_strategy()),
            vec![Level1Strategy::PerEstimator]
        );
        let mut sequential = BulkTriangleCounter::new(256, 13);
        assert_eq!(sequential.level1_strategy(), Level1Strategy::PerEstimator);
        for batch in stream.batches(37) {
            sharded.process_batch(batch);
        }
        sequential.process_stream(stream.edges(), 37);
        assert_eq!(
            sharded.map_shards(|shard| shard.raw_estimates()).concat(),
            sequential.raw_estimates()
        );
        assert_eq!(
            TriangleEstimator::estimate(&sharded).to_bits(),
            TriangleEstimator::estimate(&sequential).to_bits()
        );
    }

    #[test]
    fn sharded_estimator_uses_the_shard_seed_stride_contract() {
        // The factory must be handed exactly the seeds `shard_seed` hands
        // out, so every sharded pool stays comparable to its references.
        let mut seeds_seen = Vec::new();
        let sharded = ShardedEstimator::from_factory(3, 21, |seed| {
            seeds_seen.push(seed);
            BulkTriangleCounter::new(8, seed)
        });
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(
            seeds_seen,
            vec![21, 21 + SHARD_SEED_STRIDE, 21 + 2 * SHARD_SEED_STRIDE]
        );
    }

    #[test]
    fn sharded_estimator_over_boxed_shards_matches_concrete_shards() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut boxed = ShardedEstimator::from_factory(2, 7, |seed| {
            Box::new(BulkTriangleCounter::new(64, seed)) as Box<dyn TriangleEstimator + Send>
        });
        let mut concrete =
            ShardedEstimator::from_factory(2, 7, |seed| BulkTriangleCounter::new(64, seed));
        for batch in stream.batches(64) {
            boxed.process_batch(batch);
            concrete.process_batch(batch);
        }
        assert_eq!(
            TriangleEstimator::estimate(&boxed).to_bits(),
            TriangleEstimator::estimate(&concrete).to_bits()
        );
        assert_eq!(
            boxed.map_shards(|shard| shard.estimate().to_bits()),
            concrete.map_shards(|shard| shard.estimate().to_bits())
        );
    }

    #[test]
    fn shard_section_ids_stop_at_the_end_of_the_u16_space() {
        assert_eq!(shard_section(0).unwrap(), SEC_SHARD_BASE);
        assert_eq!(shard_section(65_519).unwrap(), u16::MAX);
        for shard in [65_520, usize::from(u16::MAX) + 1, usize::MAX] {
            assert!(
                matches!(
                    shard_section(shard),
                    Err(SnapshotError::Incompatible { .. })
                ),
                "shard {shard}"
            );
        }
    }
}

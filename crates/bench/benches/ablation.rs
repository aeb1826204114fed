//! Ablations of the design choices called out in DESIGN.md: bulk vs.
//! one-at-a-time processing, and mean vs. median-of-means aggregation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tristream_core::counter::Aggregation;
use tristream_core::{
    BulkTriangleCounter, Level1Strategy, ShardedEstimator, TriangleCounter, TriangleEstimator,
};
use tristream_gen::holme_kim;

fn bench_bulk_vs_single(c: &mut Criterion) {
    let stream = holme_kim(8_000, 4, 0.5, 3);
    let edges = stream.edges();
    let r = 4_096usize;
    let mut group = c.benchmark_group("bulk_vs_single_edge");
    group.sample_size(10);
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("bulk_w=8r", |b| {
        b.iter(|| {
            let mut counter = BulkTriangleCounter::new(r, 5);
            counter.process_stream(edges, 8 * r);
            counter.estimate()
        });
    });
    group.bench_function("one_at_a_time", |b| {
        b.iter(|| {
            let mut counter = TriangleCounter::new(r, 5);
            counter.process_edges(edges);
            counter.estimate()
        });
    });
    group.finish();
}

fn bench_aggregations(c: &mut Criterion) {
    let stream = holme_kim(8_000, 4, 0.5, 7);
    let edges = stream.edges();
    let r = 16_384usize;
    // Aggregation cost is query-time only; measure the query after one
    // shared ingest.
    let mut counter = BulkTriangleCounter::new(r, 5);
    counter.process_stream(edges, 8 * r);
    let mut group = c.benchmark_group("aggregation_query");
    group.sample_size(20);
    group.bench_function("mean", |b| {
        b.iter(|| counter.estimate_with(Aggregation::Mean));
    });
    group.bench_function("median_of_means_12", |b| {
        b.iter(|| counter.estimate_with(Aggregation::MedianOfMeans { groups: 12 }));
    });
    group.finish();
}

fn bench_level1_strategies_and_parallelism(c: &mut Criterion) {
    let stream = holme_kim(8_000, 4, 0.5, 11);
    let edges = stream.edges();
    let r = 16_384usize;
    let mut group = c.benchmark_group("level1_and_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("per_estimator_level1", |b| {
        b.iter(|| {
            let mut counter =
                BulkTriangleCounter::new(r, 5).with_level1_strategy(Level1Strategy::PerEstimator);
            counter.process_stream(edges, 8 * r);
            counter.estimate()
        });
    });
    group.bench_function("geometric_skip_level1", |b| {
        b.iter(|| {
            let mut counter =
                BulkTriangleCounter::new(r, 5).with_level1_strategy(Level1Strategy::GeometricSkip);
            counter.process_stream(edges, 8 * r);
            counter.estimate()
        });
    });
    group.bench_function("parallel_4_shards", |b| {
        b.iter(|| {
            let mut counter = ShardedEstimator::bulk(r, 4, 5);
            for batch in edges.chunks(8 * r) {
                counter.process_batch(batch);
            }
            counter.estimate()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bulk_vs_single,
    bench_aggregations,
    bench_level1_strategies_and_parallelism
);
criterion_main!(benches);

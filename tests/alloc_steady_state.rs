//! Allocation bounds of the bulk hot path and of the `.tsb` reader.
//!
//! The SoA rewrite's pitch is that per-batch working state is *cleared,
//! not reallocated*: after the scratch has grown to the high-water mark of
//! the batch size in use, `process_batch` must never touch the heap again.
//! The `.tsb` reader makes a bound of its own: what it allocates follows
//! the bytes actually present, not the record count a header claims, so a
//! hostile serve `EDGES` frame cannot make the daemon reserve memory it
//! never receives. This test pins both with a counting global allocator —
//! not a profiler claim, an asserted invariant.
//!
//! This file must stay a dedicated integration-test binary with exactly
//! one `#[test]` (both properties measured phase by phase inside it): a
//! process has a single `#[global_allocator]`, and any sibling test
//! running on another thread would count its own allocations into the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tristream::core::Level1Strategy;
use tristream::prelude::*;

/// Forwards to the system allocator, counting every allocation path that
/// acquires memory (`alloc`, `alloc_zeroed`, `realloc`) and the bytes each
/// one requests.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn bulk_batches_do_not_allocate_in_the_steady_state() {
    // A clustered stream with enough distinct vertices to exercise the
    // degree table, cut into fixed-size batches.
    let stream = tristream::gen::holme_kim(600, 4, 0.4, 9);
    let batches: Vec<&[Edge]> = stream.batches(512).collect();
    assert!(
        batches.len() >= 4,
        "need several batches to warm and measure"
    );

    for strategy in [Level1Strategy::PerEstimator, Level1Strategy::GeometricSkip] {
        let mut counter = BulkTriangleCounter::new(256, 7).with_level1_strategy(strategy);
        // Warm-up: the first pass over the batches grows the scratch (the
        // degree, subscription and batch-edge tables and the per-edge
        // columns to their batch-size bounds).
        for batch in &batches {
            counter.process_batch(batch);
        }
        // Steady state: replaying the same batches — same batch size, same
        // vertex universe — must perform zero heap allocations.
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..3 {
            for batch in &batches {
                counter.process_batch(batch);
            }
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocations, 0,
            "{strategy:?}: steady-state batches must not allocate"
        );
        // The counter still works after the measurement window (and this
        // estimate call MAY allocate — it materialises the estimate vector,
        // which is a query, not the per-edge hot path).
        assert!(counter.estimate().is_finite());
        assert_eq!(
            counter.edges_seen(),
            4 * stream.len() as u64,
            "{strategy:?}: every replayed batch was ingested"
        );
    }

    overstated_tsb_headers_allocate_by_bytes_present();
}

/// Phase two: a 40-byte `.tsb` buffer whose header claims 2^24 records —
/// the shape of a hostile serve `EDGES` payload — must be refused without
/// reserving memory for the records it claims (2^24 × 16 bytes = 256 MiB).
#[allow(clippy::unwrap_used)] // test helper — same exemption as #[test] fns
fn overstated_tsb_headers_allocate_by_bytes_present() {
    use tristream::graph::binary::{read_edges_binary, read_edges_binary_batched};

    let mut hostile = Vec::new();
    tristream::graph::binary::write_edges_binary(&[Edge::new(1u64, 2u64)], &mut hostile).unwrap();
    hostile[8..16].copy_from_slice(&(1u64 << 24).to_le_bytes());
    hostile.extend_from_slice(&[0; 8]);
    assert_eq!(hostile.len(), 40);

    const BOUND: u64 = 1 << 20;
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let whole = read_edges_binary(&hostile[..]);
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert!(whole.is_err(), "a truncated stream must be refused");
    assert!(
        allocated < BOUND,
        "whole-stream reader allocated {allocated} bytes for a 40-byte input"
    );

    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let batches: Vec<_> = read_edges_binary_batched(&hostile[..], 1 << 24)
        .unwrap()
        .collect();
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert!(matches!(batches.as_slice(), [Err(_)]), "{batches:?}");
    assert!(
        allocated < BOUND,
        "batched reader allocated {allocated} bytes for a 40-byte input"
    );
}

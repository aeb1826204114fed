//! The named-workload benchmark suite behind `tristream-cli bench`.
//!
//! Unlike the `table*`/`figure*` binaries (which reproduce the paper's
//! evaluation as prose tables), this suite holds the implementation's CI
//! gates: every workload has a stable name, runs deterministically from
//! one base seed, feeds the one gate, and lands in the versioned
//! `BENCH.json` schema documented in [`crate::report`]. Every gated
//! statistic is a pure function of the seed and the suite reads no clock,
//! so the gate never flakes on machine speed and two runs with one seed
//! write byte-identical reports.
//!
//! Workloads:
//!
//! * `accuracy-bulk-syn3reg` / `accuracy-parallel-planted` — bulk-counter
//!   estimates against exact ground truth on generator graphs, each with a
//!   documented error bound the CI gate enforces.
//! * `accuracy-<algo>` — the equal-memory head-to-head: every registry
//!   algorithm at one `memory_words()` budget (see [`HEAD_TO_HEAD_BOUNDS`]).
//! * `serve-ingest` — the `tristream-serve` daemon driven over a real
//!   loopback socket: EDGES-frame ingest (framing + protocol decode +
//!   engine enqueue + final sync). The served estimate is checked
//!   bit-identical to an offline twin built by the recipe
//!   `docs/PROTOCOL.md` documents, and the mismatch fraction is the row's
//!   gated error (bound 0), so `bench --check` enforces socket/offline
//!   parity.
//! * `snapshot-restore` — checkpoint mechanics on the serve engine recipe:
//!   a `TSS\0` snapshot is taken mid-stream (the row records the container
//!   size in words next to the resident `memory_words()`), restored into a
//!   freshly built engine, and both runs then finish the stream. The gated
//!   statistic is the fraction of trials whose restored run did not finish
//!   bit-identical to the uninterrupted one, with a bound of exactly zero —
//!   so `bench --check` enforces restore bit-parity.
//!
//! Timing is `perfbench`'s job, at real shapes (`perfbench/README.md`).

use crate::report::{summarize_workload, BenchReport, WorkloadKind, WorkloadResult};
use crate::trial::run_trials;
use crate::workloads::load_standin_scaled;
use tristream_baselines::registry::{find_algo, AlgoParams, StreamHint};
use tristream_core::{BulkTriangleCounter, ShardedEstimator, TriangleEstimator};
use tristream_gen::DatasetKind;
use tristream_graph::{Edge, EdgeStream, GraphError};
use tristream_serve::{Client, CreateStream, Server, SERVE_STREAM_HINT};

/// Documented accuracy bound for `accuracy-bulk-syn3reg` (mean relative
/// error of a `r ≥ 8192` bulk counter on the Syn-3-regular stand-in, where
/// `mΔ/τ = 9`). Empirical mean error is ~1–3%; the bound leaves a wide
/// margin so only real regressions trip the CI gate.
pub const BOUND_BULK_SYN3REG: f64 = 0.15;

/// Documented accuracy bound for `accuracy-parallel-planted` (mean relative
/// error of the sharded parallel counter on a planted-triangle graph).
pub const BOUND_PARALLEL_PLANTED: f64 = 0.25;

/// Documented accuracy bounds for the equal-memory `accuracy-<algo>`
/// head-to-head family (the paper's Table 1/2-style comparison): every
/// registry algorithm runs over the same Syn-3-regular stream with its
/// space parameter sized for the same `memory_words()` budget, and its
/// mean relative error vs the exact count is gated against the bound
/// listed here. The errors are deterministic per seed, so the gate never
/// flakes on machine speed.
///
/// The bounds encode the paper's comparative claim, loosely: neighborhood
/// sampling stays within a few tens of percent at this budget, the
/// small-space baselines are allowed progressively more, and Buriol — whose
/// blind third vertex almost never completes a triangle, the paper's own
/// observation — gets a deliberately lax bound: its row exists to *record*
/// the failure (error ≈ 1.0 when nothing is found, large overshoot when a
/// lucky estimator fires), not to pretend it competes.
/// `sliding` pays an `O(log w)` chain multiplier per estimator, so at
/// equal memory it affords ~`ln m` fewer estimators than the plain
/// counters — its band is accordingly wide (observed ≈ 0.8 at the
/// 4096-word budget).
pub const HEAD_TO_HEAD_BOUNDS: &[(&str, f64)] = &[
    ("neighborhood", 0.35),
    ("neighborhood-bulk", 0.35),
    ("sliding", 2.0),
    ("exact", 0.0),
    ("buriol", 30.0),
    ("jowhari-ghodsi", 0.90),
    ("pagh-tsourakakis", 0.75),
];

/// EDGES-frame size of the serve and snapshot workloads: big enough to
/// amortise framing, small enough that each trial sends several frames.
const SERVE_BATCH: usize = 4_096;

/// Configuration of one suite run. Construct via [`BenchConfig::smoke`] or
/// [`BenchConfig::full`], or build a custom one (tests use tiny streams).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Recorded in the report: `"smoke"` or `"full"` (custom configs may
    /// use any label).
    pub mode: String,
    /// Base RNG seed every workload derives from.
    pub seed: u64,
    /// Seeded trials per workload.
    pub trials: usize,
    /// Vertices of the Holme–Kim stream the serve and snapshot workloads
    /// send.
    pub serve_vertices: u64,
    /// `memory_words()` budget of the streams the serve and snapshot
    /// workloads create.
    pub serve_budget_words: u64,
    /// Worker shards for the parallel execution models.
    pub shards: usize,
    /// Estimator-pool size for the accuracy workloads.
    pub accuracy_estimators: usize,
    /// `memory_words()` budget every algorithm in the equal-memory
    /// head-to-head family is sized for.
    pub head_to_head_budget_words: usize,
}

impl BenchConfig {
    /// The CI configuration: every gated workload, but few trials and
    /// moderate pools so the whole run stays in CI budget.
    pub fn smoke(seed: u64) -> Self {
        Self {
            mode: "smoke".into(),
            seed,
            trials: 3,
            serve_vertices: 4_000,
            serve_budget_words: 2_048,
            shards: 4,
            accuracy_estimators: 8_192,
            // Deliberately below the exact counter's ~8000-word O(m)
            // adjacency on the head-to-head stream (2·m + n for m = 3000,
            // n = 2000): above that, sparsifying baselines can simply keep
            // the whole graph and the "equal space" comparison is
            // meaningless.
            head_to_head_budget_words: 4_096,
        }
    }

    /// The full configuration: same workloads at five trials with larger
    /// streams and pools.
    pub fn full(seed: u64) -> Self {
        Self {
            mode: "full".into(),
            trials: 5,
            serve_vertices: 20_000,
            serve_budget_words: 4_096,
            accuracy_estimators: 16_384,
            // The head-to-head budget is NOT scaled up with the fuller
            // pools: it must stay below the comparison stream's O(m)
            // adjacency (see `smoke`) for the space constraint to bind.
            ..Self::smoke(seed)
        }
    }
}

/// Runs the whole suite and returns the report.
pub fn run_suite(config: &BenchConfig) -> Result<BenchReport, GraphError> {
    // One generation feeds both the serve and the snapshot rows, so the
    // two parity statements cover the same stream by construction.
    let serve_stream = tristream_gen::holme_kim(config.serve_vertices, 5, 0.4, config.seed);
    let mut workloads = accuracy_workloads(config);
    workloads.extend(head_to_head_workloads(config));
    workloads.push(serve_workload(config, &serve_stream)?);
    workloads.push(snapshot_workload(config, &serve_stream));
    Ok(BenchReport {
        mode: config.mode.clone(),
        seed: config.seed,
        workloads,
    })
}

fn accuracy_workloads(config: &BenchConfig) -> Vec<WorkloadResult> {
    let r = config.accuracy_estimators;
    let mut results = Vec::new();

    // Bulk counter on the Syn-3-regular stand-in (the paper's Table 1
    // workload: 2000 vertices, 3000 edges, exactly 1000 triangles).
    let syn = load_standin_scaled(DatasetKind::Syn3Regular, 1, config.seed);
    let truth = syn.summary.triangles as f64;
    let summary = run_trials(truth, config.trials, config.seed, |sd| {
        let mut counter = BulkTriangleCounter::new(r, sd);
        counter.process_stream(syn.stream.edges(), 8 * r);
        counter.estimate()
    });
    results.push(summarize_workload(
        "accuracy-bulk-syn3reg",
        WorkloadKind::Accuracy,
        syn.edges() as u64,
        config.trials,
        Some(8 * r),
        None,
        Some(r),
        (summary.mean_deviation_pct / 100.0, BOUND_BULK_SYN3REG),
    ));

    // Parallel sharded counter on a planted-triangle graph (exact truth by
    // construction).
    let planted = tristream_gen::planted_triangles(400, 1_200, config.seed);
    let truth = 400.0;
    let summary = run_trials(truth, config.trials, config.seed, |sd| {
        let mut counter = ShardedEstimator::bulk(r, config.shards, sd);
        for batch in planted.edges().chunks(8 * r) {
            counter.process_batch(batch);
        }
        counter.estimate()
    });
    results.push(summarize_workload(
        "accuracy-parallel-planted",
        WorkloadKind::Accuracy,
        planted.len() as u64,
        config.trials,
        Some(8 * r),
        Some(config.shards),
        Some(r),
        (summary.mean_deviation_pct / 100.0, BOUND_PARALLEL_PLANTED),
    ));

    results
}

/// The equal-memory head-to-head (the paper's comparative claim as a
/// committed artifact): every registry algorithm, same stream, same
/// `memory_words()` budget, mean relative error vs the exact count. The
/// space parameter comes from each spec's budget heuristic; the *measured*
/// residency after the stream is recorded next to the budget so the
/// report shows how close the equal-space setup landed. `exact` is
/// included as the reference row — its error is 0 by construction and its
/// `memory_words` documents the `O(m)` cost the streaming algorithms
/// avoid.
fn head_to_head_workloads(config: &BenchConfig) -> Vec<WorkloadResult> {
    let syn = load_standin_scaled(DatasetKind::Syn3Regular, 1, config.seed);
    let truth = syn.summary.triangles as f64;
    let stream_edges = syn.stream.edges();
    let hint = StreamHint {
        edges: stream_edges.len() as u64,
        vertices: syn.summary.vertices,
    };
    let budget = config.head_to_head_budget_words;
    let mut results = Vec::new();
    for spec in tristream_baselines::registry() {
        // A missing entry must fail loudly, not default to some lax bound:
        // the gate's promise is that every head-to-head row has a
        // documented, deliberate bound.
        let bound = HEAD_TO_HEAD_BOUNDS
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|&(_, bound)| bound)
            .unwrap_or_else(|| {
                panic!(
                    "registry algorithm {:?} has no HEAD_TO_HEAD_BOUNDS entry",
                    spec.name
                )
            });
        let space = spec.space_for_budget(budget, &hint);
        let mut measured_words = 0u64;
        let summary = run_trials(truth, config.trials, config.seed, |sd| {
            let mut estimator = spec.build(&AlgoParams {
                space,
                seed: sd,
                // Whole-stream window, so `sliding` answers the same
                // question as everyone else.
                window: Some(hint.edges),
            });
            estimator.process_edges(stream_edges);
            // Worst case across trials, so the recorded residency covers
            // the same seed population the error statistic averages over
            // (it is seed-dependent for the data-dependent algorithms).
            measured_words = measured_words.max(estimator.memory_words() as u64);
            estimator.estimate()
        });
        let mut workload = summarize_workload(
            &format!("accuracy-{}", spec.name),
            WorkloadKind::Accuracy,
            stream_edges.len() as u64,
            config.trials,
            None,
            None,
            Some(space),
            (summary.mean_deviation_pct / 100.0, bound),
        );
        workload.algo = Some(spec.name.to_string());
        workload.memory_words = Some(measured_words);
        workload.budget_words = Some(budget as u64);
        results.push(workload);
    }
    results
}

/// The `serve-ingest` row: the daemon driven end-to-end over a real
/// loopback socket. Per trial a fresh stream is created with a
/// trial-salted seed, the serve stream is sent as EDGES frames of `w`
/// edges, and a QUERY synchronises — so the row covers framing, protocol
/// decode, engine enqueue and the final sync.
///
/// The gated statistic is *parity*, not accuracy: the fraction of trials
/// whose served estimate was not bit-identical to the offline twin, with a
/// bound of exactly zero — the daemon must be a transparent transport
/// around the registry engines.
fn serve_workload(config: &BenchConfig, stream: &EdgeStream) -> Result<WorkloadResult, GraphError> {
    let edges = stream.edges();
    let w = SERVE_BATCH;
    let shards = config.shards.max(1);
    let algo = "neighborhood-bulk";
    let budget_words = config.serve_budget_words;

    let server = Server::bind("127.0.0.1:0").map_err(GraphError::Io)?;
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    // Client failures are infrastructure bugs (the daemon is in-process),
    // so they fail the suite loudly rather than skewing the rows.
    let fail =
        |stage: &str, e: &dyn std::fmt::Display| -> ! { panic!("serve workload {stage}: {e}") };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => fail("connect", &e),
    };

    let mut parity_mismatches = 0u32;
    for t in 0..config.trials {
        let trial_seed = config.seed.wrapping_add(t as u64);
        let name = format!("bench-t{t}");
        let mut spec = CreateStream::new(&name, algo);
        spec.seed = trial_seed;
        spec.budget_words = budget_words;
        spec.shards = shards as u16;
        if let Err(e) = client.create_stream(&spec) {
            fail("create", &e);
        }
        if let Err(e) = client.send_edges_batched(&name, edges, w) {
            fail("send", &e);
        }
        let reply = match client.query(&name) {
            Ok(reply) => reply,
            Err(e) => fail("query", &e),
        };
        assert_eq!(
            reply.edges,
            edges.len() as u64,
            "the daemon must ingest the whole stream"
        );
        let offline = offline_twin_estimate(algo, trial_seed, budget_words, shards, edges, w);
        if reply.estimate.to_bits() != offline.to_bits() {
            parity_mismatches += 1;
        }
        if let Err(e) = client.delete(&name) {
            fail("delete", &e);
        }
    }
    if let Err(e) = client.shutdown() {
        fail("shutdown", &e);
    }
    match daemon.join() {
        Ok(run_result) => run_result.map_err(GraphError::Io)?,
        Err(_) => panic!("serve workload: daemon thread panicked"),
    }

    let parity_error = f64::from(parity_mismatches) / config.trials.max(1) as f64;
    let mut ingest = summarize_workload(
        "serve-ingest",
        WorkloadKind::Serve,
        edges.len() as u64,
        config.trials,
        Some(w),
        Some(shards),
        None,
        (parity_error, 0.0),
    );
    ingest.algo = Some(algo.to_string());
    ingest.budget_words = Some(budget_words);
    Ok(ingest)
}

/// The `snapshot-restore` row: checkpoint mechanics on the serve engine
/// recipe. Per trial a fresh engine ingests the front of the stream up to
/// a batch-aligned cut (where the daemon's checkpoint cadence would
/// fire), its `TSS\0` snapshot is taken, the bytes are restored into a
/// freshly built engine, and both engines then finish the stream
/// over the same batch boundaries. The gated statistic is *parity* with a
/// bound of exactly zero: the fraction of trials whose restored run did
/// not finish bit-identical to the uninterrupted one — a checkpoint must
/// be a perfect continuation, never an approximation. The row records the
/// container size (`snapshot_words`) next to the resident `memory_words()`
/// at the cut, so the report shows the serialization overhead a checkpoint
/// pays over the sketch it captures.
fn snapshot_workload(config: &BenchConfig, stream: &EdgeStream) -> WorkloadResult {
    let edges = stream.edges();
    // Same batch size and engine parameters as the serve family, so the
    // snapshot rows describe the checkpoints the daemon actually writes.
    let w = SERVE_BATCH;
    let shards = config.shards.max(1);
    let algo = "neighborhood-bulk";
    let budget_words = config.serve_budget_words;
    // The last batch boundary at or before the midpoint — a point the
    // EDGES-cadence checkpointer could genuinely have fired at.
    let cut = ((edges.len() / 2 / w.max(1)).max(1) * w).min(edges.len());

    let mut parity_mismatches = 0u32;
    let mut measured_words = 0u64;
    let mut container_words = 0u64;
    for t in 0..config.trials {
        let trial_seed = config.seed.wrapping_add(t as u64);
        let mut engine = serve_recipe_engine(algo, trial_seed, budget_words, shards);
        for chunk in edges[..cut].chunks(w) {
            engine.process_batch(chunk);
        }
        measured_words = measured_words.max(engine.memory_words() as u64);

        let bytes = engine
            .snapshot()
            .unwrap_or_else(|e| panic!("snapshot workload encode: {e}"));
        container_words = container_words.max((bytes.len() as u64).div_ceil(8));

        // Restore into a freshly built engine, as crash recovery does.
        let mut restored = serve_recipe_engine(algo, trial_seed, budget_words, shards);
        restored
            .restore(&bytes)
            .unwrap_or_else(|e| panic!("snapshot workload restore: {e}"));

        for chunk in edges[cut..].chunks(w) {
            engine.process_batch(chunk);
            restored.process_batch(chunk);
        }
        if engine.estimate().to_bits() != restored.estimate().to_bits() {
            parity_mismatches += 1;
        }
    }

    let parity_error = f64::from(parity_mismatches) / config.trials.max(1) as f64;
    let mut restore = summarize_workload(
        "snapshot-restore",
        WorkloadKind::Snapshot,
        edges.len() as u64,
        config.trials,
        Some(w),
        Some(shards),
        None,
        (parity_error, 0.0),
    );
    restore.algo = Some(algo.to_string());
    restore.budget_words = Some(budget_words);
    restore.memory_words = Some(measured_words);
    restore.snapshot_words = Some(container_words);
    restore
}

/// Builds the serve engine recipe `docs/PROTOCOL.md` documents for CREATE
/// (`space_for_budget` under [`SERVE_STREAM_HINT`], ceil split across
/// shards, shard-salted seeds) — the estimator a CREATE frame with these
/// parameters stands up.
fn serve_recipe_engine(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
) -> ShardedEstimator<Box<dyn TriangleEstimator + Send>> {
    let spec =
        find_algo(algo).unwrap_or_else(|| panic!("algorithm {algo:?} is not in the registry"));
    let budget = usize::try_from(budget_words).unwrap_or(usize::MAX);
    let space = spec.space_for_budget(budget, &SERVE_STREAM_HINT);
    let shard_space = if spec.splits_across_shards {
        space.div_ceil(shards)
    } else {
        space
    };
    ShardedEstimator::from_factory(shards, seed, |shard_seed| {
        spec.build(&AlgoParams {
            space: shard_space,
            seed: shard_seed,
            window: None,
        })
    })
}

/// The offline twin of a served stream: the [`serve_recipe_engine`], fed
/// the same batch boundaries the EDGES frames carried. Its estimate must
/// match the daemon's bit for bit.
fn offline_twin_estimate(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
    edges: &[Edge],
    w: usize,
) -> f64 {
    let mut twin = serve_recipe_engine(algo, seed, budget_words, shards);
    for chunk in edges.chunks(w) {
        twin.process_batch(chunk);
    }
    twin.estimate()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny configuration so the whole suite runs in a
    /// debug-mode unit test.
    fn tiny_config() -> BenchConfig {
        BenchConfig {
            mode: "test".into(),
            seed: 1,
            trials: 1,
            // ~10K edges: several SERVE_BATCH frames, so the snapshot cut
            // falls mid-stream.
            serve_vertices: 2_000,
            serve_budget_words: 128,
            shards: 2,
            accuracy_estimators: 4_096,
            head_to_head_budget_words: 4_096,
        }
    }

    #[test]
    fn suite_runs_end_to_end_and_passes_its_own_gate() {
        let report = run_suite(&tiny_config()).unwrap();
        // 2 accuracy + 1 serve + 1 snapshot + the equal-memory head-to-head
        // family (one row per registry entry).
        assert_eq!(
            report.workloads.len(),
            4 + tristream_baselines::registry().len()
        );
        for name in [
            "accuracy-bulk-syn3reg",
            "accuracy-parallel-planted",
            "accuracy-neighborhood",
            "accuracy-neighborhood-bulk",
            "accuracy-sliding",
            "accuracy-exact",
            "accuracy-buriol",
            "accuracy-jowhari-ghodsi",
            "accuracy-pagh-tsourakakis",
            "serve-ingest",
            "snapshot-restore",
        ] {
            let w = report.workload(name).unwrap_or_else(|| {
                panic!("missing workload {name}");
            });
            assert_eq!(w.trials, 1);
            assert!(w.edges > 0);
        }
        assert!(
            report.gate_failures().is_empty(),
            "the gate must pass: {:?}",
            report
                .workloads
                .iter()
                .filter(|w| w.kind == WorkloadKind::Accuracy)
                .map(|w| (w.name.clone(), w.mean_rel_error))
                .collect::<Vec<_>>()
        );
        let ingest = report.workload("serve-ingest").unwrap();
        assert_eq!(ingest.batch, Some(SERVE_BATCH));
        assert_eq!(ingest.budget_words, Some(128));
        assert!(
            ingest.edges > 2 * SERVE_BATCH as u64,
            "the serve stream spans several frames"
        );
    }

    #[test]
    fn accuracy_errors_are_deterministic_per_seed() {
        // The suite reads no clock: one seed gives one byte-identical
        // report, every error and memory figure included.
        let config = tiny_config();
        assert_eq!(
            run_suite(&config).unwrap().to_json(),
            run_suite(&config).unwrap().to_json()
        );
    }

    #[test]
    fn head_to_head_bounds_cover_the_registry_exactly() {
        // Adding a registry algorithm without a documented bound must fail
        // this test (and would panic the suite), never silently gate at
        // some default.
        let mut bound_names: Vec<&str> = HEAD_TO_HEAD_BOUNDS.iter().map(|(n, _)| *n).collect();
        bound_names.sort_unstable();
        let mut registry_names = tristream_baselines::algo_names();
        registry_names.sort_unstable();
        assert_eq!(bound_names, registry_names);
    }

    #[test]
    fn head_to_head_rows_record_the_equal_memory_setup() {
        let report = run_suite(&tiny_config()).unwrap();
        let exact = report.workload("accuracy-exact").unwrap();
        assert_eq!(exact.mean_rel_error, 0.0, "exact is the truth");
        for spec in tristream_baselines::registry() {
            let row = report.workload(&format!("accuracy-{}", spec.name)).unwrap();
            assert_eq!(row.algo.as_deref(), Some(spec.name));
            assert_eq!(row.budget_words, Some(4_096));
            let words = row.memory_words.expect("measured memory is recorded");
            assert!(words > 0, "{}: zero measured words", spec.name);
            if spec.name != "exact" && spec.name != "buriol" {
                // The heuristic sizing must land in the budget's order of
                // magnitude (buriol's vertex reservoir and exact's O(m)
                // state are the documented outliers).
                assert!(
                    words <= 4_096 * 4,
                    "{}: {words} words blows the 4096-word budget",
                    spec.name
                );
            }
        }
        // The family's reason to exist: at equal memory, neighborhood
        // sampling must beat the blind-vertex baseline outright.
        let neighborhood = report.workload("accuracy-neighborhood-bulk").unwrap();
        let buriol = report.workload("accuracy-buriol").unwrap();
        assert!(
            neighborhood.mean_rel_error < buriol.mean_rel_error,
            "neighborhood {:?} must beat buriol {:?} at equal space",
            neighborhood.mean_rel_error,
            buriol.mean_rel_error
        );
    }

    #[test]
    fn serve_rows_gate_socket_offline_parity_at_zero() {
        let report = run_suite(&tiny_config()).unwrap();
        let ingest = report.workload("serve-ingest").unwrap();
        assert_eq!(ingest.kind, WorkloadKind::Serve);
        assert_eq!(
            ingest.mean_rel_error, 0.0,
            "served estimates must be bit-identical to the offline twin"
        );
        assert_eq!(ingest.error_bound, 0.0, "the parity bound is exact");
        assert_eq!(ingest.algo.as_deref(), Some("neighborhood-bulk"));
        assert!(ingest.batch.is_some() && ingest.shards.is_some());
    }

    #[test]
    fn snapshot_rows_gate_restore_parity_at_zero() {
        let report = run_suite(&tiny_config()).unwrap();
        let restore = report.workload("snapshot-restore").unwrap();
        assert_eq!(restore.kind, WorkloadKind::Snapshot);
        assert_eq!(
            restore.mean_rel_error, 0.0,
            "a restored run must finish bit-identical to the uninterrupted one"
        );
        assert_eq!(restore.error_bound, 0.0, "the parity bound is exact");
        assert_eq!(restore.algo.as_deref(), Some("neighborhood-bulk"));
        // The row describes the checkpoint: its container size next to the
        // resident sketch it captured.
        let words = restore.snapshot_words.expect("container size is recorded");
        let resident = restore.memory_words.expect("resident words are recorded");
        assert!(words > 0 && resident > 0, "empty sizes");
        // The parity statement covers the whole stream.
        assert_eq!(
            restore.edges,
            report.workload("serve-ingest").unwrap().edges
        );
    }

    #[test]
    fn smoke_and_full_configs_are_ci_shaped() {
        let smoke = BenchConfig::smoke(1);
        assert_eq!(smoke.mode, "smoke");
        assert_eq!(smoke.serve_budget_words, 2_048);
        assert_eq!(SERVE_BATCH, 4_096);
        let full = BenchConfig::full(1);
        assert_eq!(full.mode, "full");
        assert!(full.trials > smoke.trials);
        assert!(full.serve_vertices > smoke.serve_vertices);
    }
}

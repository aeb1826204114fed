//! The three workloads. See README.md for why each exists.

use crate::daemon::{run_job, ScratchDir};
use crate::inputs::{self, cached_exact, ensure_tsb, prune_tsb, Exact, FrameSource};
use crate::layers::{probe_engine, probe_serve, EngineLayers, EngineShape};
use crate::report::{Report, Values};
use crate::serve::{self, create_spec, SessionResult};
use crate::stats::{highest_supported_percentile, mean, median, percentile};
use crate::trace::{now, Tracer};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tristream_core::Level1Strategy;
use tristream_graph::Edge;
use tristream_serve::CreateStream;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest `count` jobs per run (a traced run needs one traced, one not).
const MIN_JOBS: usize = 2;
/// Longest a single `count` child may run.
const JOB_LIMIT: Duration = Duration::from_secs(120);
/// Failure probability for the accuracy oracle's Theorem 3.3 bound.
const ACCURACY_DELTA: f64 = 1e-3;

const OFFLINE_ESTIMATORS: usize = 1 << 20;
const OFFLINE_BATCH: usize = 262_144;
const OFFLINE_SHARDS: usize = 2;

/// The CREATE default budget: 16 Ki words, about 1.6K estimators.
const SMALL_BUDGET_WORDS: u64 = 1 << 14;
const SMALL_FRAME: usize = 1024;
/// About 100K estimators, well past a 2 MiB L2.
const DURABLE_BUDGET_WORDS: u64 = 1 << 20;
const DURABLE_FRAME: usize = 4096;
/// Serve session the offline traced run adds so that it, too, reports
/// the serve layers (see README.md).
const OFFLINE_SERVE_PROBE: Duration = Duration::from_secs(2);
/// Edges the in-process serve-layer replay pushes through.
const SERVE_PROBE_EDGES: usize = 1 << 18;

/// Command-line settings of one run.
#[derive(Debug)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub cli: PathBuf,
    pub data: PathBuf,
}

pub const WORKLOADS: [&str; 3] = ["offline-orkut", "serve-small-frames", "serve-durable"];

pub fn run(settings: &Settings) -> Result<Report, String> {
    std::fs::create_dir_all(&settings.data)
        .map_err(|e| format!("cannot create {}: {e}", settings.data.display()))?;
    let scratch = ScratchDir::create(settings.data.join(format!("run-{}", std::process::id())))?;
    let mut run = Run {
        settings,
        scratch,
        tracer: Tracer::new(settings.trace, now()),
        report: Report {
            attempted: 0,
            failed: 0,
            values: Values::new(),
            lines: Vec::new(),
        },
    };
    match settings.workload.as_str() {
        "offline-orkut" => run.offline()?,
        "serve-small-frames" => run.serve(false)?,
        "serve-durable" => run.serve(true)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    let Run {
        mut report, tracer, ..
    } = run;
    if settings.trace {
        let path = settings.data.join(format!(
            "trace-{}-s{}.tsv",
            settings.workload, settings.seed
        ));
        std::fs::write(&path, tracer.to_tsv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.lines.push(format!(
            "spans: {} recorded, written to {}; self time by span:",
            tracer.spans().len(),
            path.display()
        ));
        for (name, t) in tracer.totals() {
            report.lines.push(format!(
                "  {name:<28} n={:<7} total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.values.insert("error_rate", error_rate);
    report.lines.push(format!(
        "error_rate {error_rate} ({} failed or mismatched of {} attempted)",
        report.failed, report.attempted
    ));
    Ok(report)
}

struct Run<'a> {
    settings: &'a Settings,
    scratch: ScratchDir,
    tracer: Tracer,
    report: Report,
}

/// The parsed summary line of `count --parallel`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountLine {
    pub estimate: String,
    pub edges: u64,
    pub holders: u64,
}

pub fn parse_count(stdout: &str) -> Option<CountLine> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("estimated triangle count: "))?;
    let (estimate, rest) = line.split_once(" (")?;
    let edges = rest
        .split(" edges in ")
        .next()?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()?;
    let holders = rest
        .split(" estimators hold a triangle")
        .next()?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()?;
    Some(CountLine {
        estimate: estimate.to_string(),
        edges,
        holders,
    })
}

/// The accuracy oracle: the relative error of `estimate` against the
/// exact count, and whether it is within Theorem 3.3's `(ε, δ)` bound for
/// `r` estimators.
pub fn accuracy(estimate: f64, r: usize, edges: u64, exact: Exact) -> (f64, bool) {
    let tau = exact.triangles as f64;
    let rel = (estimate - tau).abs() / tau;
    let bound = tristream_core::error_bound_for_estimators(
        r as u64,
        ACCURACY_DELTA,
        edges,
        exact.max_degree,
        exact.triangles,
    );
    (rel, rel <= bound)
}

fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

impl Run<'_> {
    fn fail(&mut self, what: String) {
        self.fail_many(1, what);
    }

    /// Records `count` failed operations or oracle mismatches.
    fn fail_many(&mut self, count: u64, what: String) {
        eprintln!("perfbench: {what}");
        self.report.lines.push(format!("FAILED: {what}"));
        self.report.failed += count;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.report.values.insert(name, value);
    }

    fn count_args(&self, path: &Path) -> Vec<String> {
        let mut args = vec![
            "count".to_string(),
            path.display().to_string(),
            "--parallel".to_string(),
        ];
        for (flag, value) in [
            ("--shards", OFFLINE_SHARDS as u64),
            ("--estimators", OFFLINE_ESTIMATORS as u64),
            ("--batch", OFFLINE_BATCH as u64),
            ("--seed", self.settings.seed),
        ] {
            args.extend([flag.to_string(), value.to_string()]);
        }
        args
    }

    fn offline(&mut self) -> Result<(), String> {
        let (seed, data) = (self.settings.seed, self.settings.data.clone());
        let tsb = data.join(format!("orkut{}-s{seed}.tsb", inputs::OFFLINE_SCALE));
        prune_tsb(&data, "orkut", &tsb);
        ensure_tsb(&tsb, || inputs::orkut(inputs::OFFLINE_SCALE, seed))?;
        let load = || -> Result<Vec<Edge>, String> {
            tristream_graph::binary::read_edges_binary_file(&tsb)
                .map(|s| s.into_edges())
                .map_err(|e| e.to_string())
        };
        let exact = cached_exact(&tsb.with_extension("exact"), load)?;
        let edges = tristream_graph::binary::read_tsb_header(
            &mut std::fs::File::open(&tsb).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?
        .edges;
        let empty = data.join("empty.tsb");
        ensure_tsb(&empty, Vec::new)?;
        let cli = self.settings.cli.clone();
        let scratch = self.scratch.path().to_path_buf();

        if !self.settings.trace {
            let mut setup = Vec::with_capacity(SETUP_REPS);
            for _ in 0..SETUP_REPS {
                let job = run_job(&cli, &self.count_args(&empty), &scratch, JOB_LIMIT)?;
                self.report.attempted += 1;
                if !job.success || parse_count(&job.stdout).map(|c| c.edges) != Some(0) {
                    self.fail(format!("set-up count job failed: {}", job.stdout.trim()));
                }
                setup.push(job.wall);
            }
            self.set("setup_s", median(&secs(&setup)).unwrap_or(f64::NAN));
        }

        let start = now();
        let mut runs: Vec<(f64, bool, u64)> = Vec::new();
        let mut first: Option<CountLine> = None;
        while runs.len() < MIN_JOBS || start.elapsed() < self.settings.window {
            let traced = self.settings.trace && runs.len() % 2 == 1;
            self.tracer.set_enabled(traced);
            let span = self.tracer.open("cli.count", runs.len() as u64, None);
            let job = run_job(&cli, &self.count_args(&tsb), &scratch, JOB_LIMIT)?;
            self.tracer.close(span);
            self.report.attempted += 1;
            let parsed = parse_count(&job.stdout).filter(|_| job.success);
            let Some(line) = parsed else {
                self.fail(format!("count job failed: {}", job.stdout.trim()));
                break;
            };
            if line.edges != edges {
                self.fail(format!("count job folded {} of {edges} edges", line.edges));
            }
            match &first {
                None => first = Some(line),
                Some(f) if *f != line => {
                    self.fail(format!("count jobs disagree: {f:?} vs {line:?}"));
                }
                Some(_) => {}
            }
            runs.push((
                edges as f64 / job.wall.as_secs_f64(),
                traced,
                job.peak_rss_kib.unwrap_or(0),
            ));
        }
        self.tracer.set_enabled(self.settings.trace);
        let rates: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let rss: Vec<f64> = runs.iter().map(|r| mib(r.2)).collect();
        self.set("ingest_edges_per_s", median(&rates).unwrap_or(f64::NAN));
        self.set("peak_rss_mib", median(&rss).unwrap_or(f64::NAN));
        let Some(line) = first else {
            return Ok(());
        };
        let estimate: f64 = line.estimate.parse().map_err(|_| "unparsable estimate")?;
        let (rel, within) = accuracy(estimate, OFFLINE_ESTIMATORS, edges, exact);
        self.report.attempted += 1;
        if !within {
            self.fail(format!(
                "estimate {estimate} is outside the Theorem 3.3 bound (exact {})",
                exact.triangles
            ));
        }
        self.report.lines.push(format!(
            "offline-orkut seed {seed}: {edges} edges, exact {} triangles, estimate {estimate}, rel_error {rel:.5}; {} jobs at {:.0?} edges/s",
            exact.triangles,
            runs.len(),
            rates
        ));
        self.set("rel_error", rel);
        if !self.settings.trace {
            return Ok(());
        }

        let pick = |traced: bool| {
            median(
                &runs
                    .iter()
                    .filter(|r| r.1 == traced)
                    .map(|r| r.0)
                    .collect::<Vec<_>>(),
            )
        };
        if let (Some(untraced), Some(traced)) = (pick(false), pick(true)) {
            self.set("trace.overhead_frac", 1.0 - traced / untraced);
        }
        let shape = EngineShape {
            tsb: &tsb,
            batch: OFFLINE_BATCH,
            shards: OFFLINE_SHARDS,
            per_shard: OFFLINE_ESTIMATORS.div_ceil(OFFLINE_SHARDS),
            seed,
            strategy: Level1Strategy::GeometricSkip,
        };
        let engine = probe_engine(&shape, &mut self.tracer)?;
        self.report.attempted += 1;
        if engine.triangle_holders != line.holders {
            self.fail(format!(
                "in-process pools hold {} triangles, the count job reported {}",
                engine.triangle_holders, line.holders
            ));
        }
        self.engine_values(&engine);

        // The offline job drives no daemon; a short serve session over the
        // same edges gives the serve layers their numbers on this run.
        let stream = load()?;
        let spec = create_spec(seed, SMALL_BUDGET_WORDS, 0);
        let (session, _) =
            self.serve_session(&stream, &spec, SMALL_FRAME, OFFLINE_SERVE_PROBE, None)?;
        self.session_values(&session);
        self.set("serve.checkpoint.count", 0.0);
        self.set("serve.checkpoint.lag_edges", 0.0);
        self.serve_probe(&stream, &spec, SMALL_FRAME)
    }

    /// Runs one session on a fresh daemon and checks every served estimate
    /// against the offline twin. With a state directory the daemon is
    /// SIGKILLed at the end and restarted from its checkpoint; otherwise it
    /// is shut down cleanly.
    fn serve_session(
        &mut self,
        base: &[Edge],
        spec: &CreateStream,
        frame_len: usize,
        window: Duration,
        state_dir: Option<&ScratchDir>,
    ) -> Result<(SessionResult, Option<serve::Recovery>), String> {
        let cli = self.settings.cli.clone();
        let traced = self.settings.trace;
        let mut setup = Vec::new();
        let reps = if traced || state_dir.is_some() {
            1
        } else {
            SETUP_REPS
        };
        let mut live = None;
        for rep in 0..reps {
            let (daemon, client, took) =
                serve::start_stream(&cli, state_dir.map(ScratchDir::path), spec)?;
            self.report.attempted += 2;
            setup.push(took);
            if rep + 1 < reps {
                self.report.attempted += 1;
                if !serve::shutdown(daemon, client) {
                    self.fail("daemon did not drain after SHUTDOWN".to_string());
                }
            } else {
                live = Some((daemon, client));
            }
        }
        let (daemon, mut client) = live.ok_or("no daemon")?;
        let mut source = FrameSource::new(base);
        let mut session = serve::run_session(
            &daemon,
            &mut client,
            &mut source,
            frame_len,
            window,
            traced,
            &mut self.tracer,
        )?;
        self.report.attempted += session.attempted;
        self.report.failed += session.failed;
        let mut checks = std::mem::take(&mut session.queries.checks);
        let recovery = match state_dir {
            None => {
                self.report.attempted += 1;
                if !serve::shutdown(daemon, client) {
                    self.fail("daemon did not drain after SHUTDOWN".to_string());
                }
                None
            }
            Some(dir) => {
                drop(client);
                daemon.kill();
                let restarts = if traced { 1 } else { SETUP_REPS };
                let recovery = serve::recover(&cli, dir, restarts, &mut checks)?;
                self.report.attempted += recovery.attempted;
                self.report.failed += recovery.failed;
                setup = recovery.setup.clone();
                Some(recovery)
            }
        };
        let offsets: usize = checks.values().map(Vec::len).sum();
        let bad = serve::check_against_twin(
            spec,
            FrameSource::new(base),
            frame_len,
            session.frames,
            &checks,
        )?;
        if bad > 0 {
            self.fail_many(
                bad,
                format!("{bad} of {offsets} served estimates differ from the offline twin"),
            );
        }
        self.set("setup_s", median(&secs(&setup)).unwrap_or(f64::NAN));
        self.report.lines.push(format!(
            "session: {} frames of {frame_len} edges ({} edges acked) in {:.3} s, {} of {} queries answered, {offsets} estimates checked against the twin",
            session.frames,
            session.acked_edges,
            session.wall.as_secs_f64(),
            session.queries.ledger.latency_ms.len(),
            session.queries.ledger.total(),
        ));
        Ok((session, recovery))
    }

    fn serve(&mut self, durable: bool) -> Result<(), String> {
        let seed = self.settings.seed;
        let base = inputs::orkut(inputs::SERVE_BASE_SCALE, seed);
        let tag = format!("base{}-s{seed}", inputs::SERVE_BASE_SCALE);
        let per_pass = cached_exact(&self.settings.data.join(format!("{tag}.exact")), || {
            Ok(base.clone())
        })?;
        let (spec, frame_len) = if durable {
            (create_spec(seed, DURABLE_BUDGET_WORDS, 2), DURABLE_FRAME)
        } else {
            (create_spec(seed, SMALL_BUDGET_WORDS, 0), SMALL_FRAME)
        };
        let state = if durable {
            Some(ScratchDir::create(self.scratch.path().join("state"))?)
        } else {
            None
        };
        let (session, recovery) = self.serve_session(
            &base,
            &spec,
            frame_len,
            self.settings.window,
            state.as_ref(),
        )?;
        self.set("ingest_edges_per_s", session.ingest_edges_per_s());
        self.set("peak_rss_mib", mib(session.peak_rss_kib));
        let tau =
            FrameSource::new(&base).exact_prefix_triangles(session.acked_edges, per_pass.triangles);
        let rel = (session.final_reply.estimate - tau as f64).abs() / tau.max(1) as f64;
        self.set("rel_error", rel);
        let latency = &session.queries.ledger.latency_ms;
        let tail = highest_supported_percentile(latency.len());
        self.report.lines.push(format!(
            "{}: ingest {:.1} edges/s, query p50 {:.3} ms, p99 {:.3} ms over {} queries (highest percentile with >= 10 samples beyond: {tail:?}), rel_error {rel:.4} (exact {tau})",
            self.settings.workload,
            session.ingest_edges_per_s(),
            percentile(latency, 50.0).unwrap_or(f64::NAN),
            percentile(latency, 99.0).unwrap_or(f64::NAN),
            latency.len(),
        ));
        if let Some(r) = &recovery {
            self.report.lines.push(format!(
                "recovery: checkpoint at {} edges ({} frames, {} bytes), restarts {:?}",
                r.checkpoint.replay_edges, r.checkpoint.ingest_batches, r.checkpoint_bytes, r.setup
            ));
        }
        if !self.settings.trace {
            return Ok(());
        }
        self.session_values(&session);
        let (count, lag) = recovery.as_ref().map_or((0, 0), |r| {
            (
                r.checkpoint.ingest_batches
                    / tristream_serve::ServerOptions::default().checkpoint_interval,
                session.acked_edges - r.checkpoint.replay_edges.min(session.acked_edges),
            )
        });
        self.set("serve.checkpoint.count", count as f64);
        self.set("serve.checkpoint.lag_edges", lag as f64);

        let tsb = self.settings.data.join(format!("{tag}.tsb"));
        prune_tsb(&self.settings.data, "base", &tsb);
        ensure_tsb(&tsb, || base.clone())?;
        let (_, shards, per_shard) = serve::resolve(&spec)?;
        let shape = EngineShape {
            tsb: &tsb,
            batch: frame_len,
            shards,
            per_shard,
            seed,
            strategy: Level1Strategy::PerEstimator,
        };
        let engine = probe_engine(&shape, &mut self.tracer)?;
        self.engine_values(&engine);
        self.serve_probe(&base, &spec, frame_len)
    }

    fn engine_values(&mut self, e: &EngineLayers) {
        self.set("graph.binary.decode_ns_per_edge", e.decode_ns_per_edge);
        self.set("graph.binary.decode_share", e.decode_share);
        self.set("core.bulk.fold_ns_per_edge", e.fold_ns_per_edge);
        self.set("core.bulk.sweep_ns_per_estimator", e.sweep_ns_per_estimator);
        self.set(
            "core.bulk.single_thread_edges_per_s",
            e.single_thread_edges_per_s,
        );
        self.set("core.bulk.triangle_holders_frac", e.triangle_holders_frac);
        self.set("core.engine.submit_wait_s", e.submit_wait_s);
        self.set("core.engine.sync_s", e.sync_s);
        self.set("core.engine.shard_skew", e.shard_skew);
        self.set("core.engine.speedup_vs_single", e.speedup_vs_single);
    }

    fn session_values(&mut self, s: &SessionResult) {
        let ledger = &s.queries.ledger;
        let p = |xs: &[f64], q: f64| percentile(xs, q).unwrap_or(f64::NAN);
        self.set("query_p50_ms", p(&ledger.latency_ms, 50.0));
        self.set("query_p99_ms", p(&ledger.latency_ms, 99.0));
        self.set("loadgen.query_late_p99_ms", p(&ledger.late_ms, 99.0));
        self.set("loadgen.frames_sent", s.frames as f64);
        self.set("loadgen.queries_sent", ledger.sent_count() as f64);
        let edges_rtt = self.tracer.durations_ms("serve.client.edges");
        let query_rtt = self.tracer.durations_ms("serve.client.query");
        self.set("serve.client.edges_rtt_p50_ms", p(&edges_rtt, 50.0));
        self.set("serve.client.edges_rtt_p99_ms", p(&edges_rtt, 99.0));
        self.set("serve.client.query_rtt_p50_ms", p(&query_rtt, 50.0));
        let enqueue_us = s.stats.ingest_nanos as f64 / s.stats.ingest_batches.max(1) as f64 / 1e3;
        self.set("serve.table.enqueue_us_per_frame", enqueue_us);
        self.set(
            "serve.table.query_us",
            s.stats.query_nanos as f64 / s.stats.queries.max(1) as f64 / 1e3,
        );
        let rtt_us = mean(&edges_rtt).unwrap_or(f64::NAN) * 1e3;
        self.set("serve.transit_us_per_frame", rtt_us - enqueue_us);
        if let Some((untraced, traced)) = s.half_rates {
            self.set("trace.overhead_frac", 1.0 - traced / untraced);
        }
        self.report.lines.push(format!(
            "edges RTT: {} samples (highest percentile with >= 10 beyond: {:?}); query RTT: {} samples",
            edges_rtt.len(),
            highest_supported_percentile(edges_rtt.len()),
            query_rtt.len()
        ));
    }

    fn serve_probe(
        &mut self,
        base: &[Edge],
        spec: &CreateStream,
        frame_len: usize,
    ) -> Result<(), String> {
        let mut source = FrameSource::new(base);
        let frames: Vec<Vec<Edge>> = (0..SERVE_PROBE_EDGES.div_ceil(frame_len))
            .map(|_| {
                let mut f = Vec::with_capacity(frame_len);
                source.fill(&mut f, frame_len);
                f
            })
            .collect();
        let dir = ScratchDir::create(self.scratch.path().join("probe-state"))?;
        let layers = probe_serve(&frames, spec, dir.path(), &mut self.tracer)?;
        self.report.attempted += frames.len() as u64 + 1;
        if layers.mismatches > 0 {
            self.fail_many(
                layers.mismatches,
                format!(
                    "{} in-process round trips did not reproduce their input",
                    layers.mismatches
                ),
            );
        }
        self.set(
            "serve.protocol.encode_ns_per_edge",
            layers.encode_ns_per_edge,
        );
        self.set(
            "serve.protocol.decode_ns_per_edge",
            layers.decode_ns_per_edge,
        );
        self.set("graph.frame.writes_per_frame", layers.writes_per_frame);
        self.set("graph.frame.bytes_per_edge", layers.bytes_per_edge);
        self.set("serve.checkpoint.bytes", layers.checkpoint_bytes);
        self.set(
            "serve.checkpoint.bytes_per_memory_word",
            layers.bytes_per_memory_word,
        );
        self.set("serve.checkpoint.encode_ms", layers.encode_ms);
        self.set("serve.checkpoint.write_ms", layers.write_ms);
        self.set("serve.checkpoint.restore_ms", layers.restore_ms);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_count_summary_line() {
        let out = "estimated triangle count: 1694724 (r = 1048576, shards = 2, batch = 262144, \
                   3644865 edges in 3.973 s, 1536 estimators hold a triangle)\nthroughput: 1 edges/sec\n";
        assert_eq!(
            parse_count(out),
            Some(CountLine {
                estimate: "1694724".to_string(),
                edges: 3_644_865,
                holders: 1536
            })
        );
        assert_eq!(parse_count("error: no such file\n"), None);
    }

    #[test]
    fn the_accuracy_oracle_rejects_a_perturbed_estimate() {
        let exact = Exact {
            triangles: 1_642_122,
            max_degree: 3064,
        };
        let (rel, ok) = accuracy(1_694_724.0, OFFLINE_ESTIMATORS, 3_644_865, exact);
        assert!(ok && rel > 0.03 && rel < 0.04, "{rel}");
        let (_, ok) = accuracy(1_694_724.0 * 3.0, OFFLINE_ESTIMATORS, 3_644_865, exact);
        assert!(!ok);
    }
}

//! The metrics the benchmark reports, and the result line it ends with.
//!
//! These tables and `BENCHMARK.json` must list the same names and units;
//! a test below keeps them in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric: name, unit, and what it is read against.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// For a per-layer metric: the end-to-end metric and workload it
    /// should move. For an end-to-end metric: how it is measured.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef { name, unit, note }
}

pub const END_TO_END: &[MetricDef] = &[
    m(
        "ingest_edges_per_s",
        "edges/s",
        "edges folded into the estimate / wall time",
    ),
    m(
        "setup_s",
        "s",
        "median time until the system takes its first edge",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        "VmHWM of the count child or the daemon",
    ),
];

pub const PER_LAYER: &[MetricDef] = &[
    m(
        "graph.binary.decode_ns_per_edge",
        "ns",
        "ingest_edges_per_s on offline-orkut",
    ),
    m(
        "graph.binary.decode_share",
        "ratio",
        "ingest_edges_per_s on offline-orkut (predicted <= 2%)",
    ),
    m(
        "core.bulk.fold_ns_per_edge",
        "ns",
        "ingest_edges_per_s on offline-orkut and serve-durable",
    ),
    m(
        "core.bulk.sweep_ns_per_estimator",
        "ns",
        "ingest_edges_per_s on offline-orkut and serve-durable",
    ),
    m(
        "core.bulk.single_thread_edges_per_s",
        "edges/s",
        "ingest_edges_per_s on offline-orkut and serve-durable",
    ),
    m(
        "core.bulk.triangle_holders_frac",
        "ratio",
        "fixed under any performance change",
    ),
    m(
        "core.engine.submit_wait_s",
        "s",
        "ingest_edges_per_s on offline-orkut",
    ),
    m(
        "core.engine.sync_s",
        "s",
        "ingest_edges_per_s on offline-orkut; query_p99_ms on serve-durable",
    ),
    m(
        "core.engine.shard_skew",
        "ratio",
        "ingest_edges_per_s on offline-orkut",
    ),
    m(
        "core.engine.speedup_vs_single",
        "ratio",
        "ingest_edges_per_s on offline-orkut",
    ),
    m(
        "serve.protocol.encode_ns_per_edge",
        "ns",
        "ingest_edges_per_s on serve-small-frames",
    ),
    m(
        "serve.protocol.decode_ns_per_edge",
        "ns",
        "ingest_edges_per_s on serve-small-frames",
    ),
    m(
        "graph.frame.writes_per_frame",
        "count",
        "ingest_edges_per_s and query_p50_ms on serve-small-frames",
    ),
    m(
        "graph.frame.bytes_per_edge",
        "bytes",
        "ingest_edges_per_s and query_p50_ms on serve-small-frames",
    ),
    m(
        "serve.client.edges_rtt_p50_ms",
        "ms",
        "ingest_edges_per_s on serve-*",
    ),
    m(
        "serve.client.edges_rtt_p99_ms",
        "ms",
        "ingest_edges_per_s on serve-*",
    ),
    m(
        "serve.client.query_rtt_p50_ms",
        "ms",
        "query_p50_ms on serve-*",
    ),
    m(
        "serve.table.enqueue_us_per_frame",
        "us",
        "ingest_edges_per_s on serve-*",
    ),
    m("serve.table.query_us", "us", "query_p50_ms on serve-*"),
    m(
        "serve.transit_us_per_frame",
        "us",
        "ingest_edges_per_s on serve-small-frames",
    ),
    m(
        "serve.checkpoint.count",
        "count",
        "ingest_edges_per_s and query_p99_ms on serve-durable",
    ),
    m(
        "serve.checkpoint.bytes",
        "bytes",
        "ingest_edges_per_s and query_p99_ms on serve-durable",
    ),
    m(
        "serve.checkpoint.bytes_per_memory_word",
        "ratio",
        "ingest_edges_per_s on serve-durable",
    ),
    m(
        "serve.checkpoint.encode_ms",
        "ms",
        "ingest_edges_per_s and query_p99_ms on serve-durable",
    ),
    m(
        "serve.checkpoint.write_ms",
        "ms",
        "ingest_edges_per_s and query_p99_ms on serve-durable",
    ),
    m(
        "serve.checkpoint.restore_ms",
        "ms",
        "setup_s on serve-durable",
    ),
    m(
        "serve.checkpoint.lag_edges",
        "edges",
        "acked edges a crash loses on serve-durable",
    ),
    m(
        "loadgen.query_late_p99_ms",
        "ms",
        "must stay well below query_p99_ms",
    ),
    m("loadgen.frames_sent", "count", "load actually offered"),
    m("loadgen.queries_sent", "count", "load actually offered"),
    m(
        "trace.overhead_frac",
        "ratio",
        "traced vs untraced ingest_edges_per_s",
    ),
    m(
        "query_p50_ms",
        "ms",
        "QUERY latency from its due time, serve-*",
    ),
    m(
        "query_p99_ms",
        "ms",
        "QUERY latency from its due time, serve-*",
    ),
    m("rel_error", "ratio", "|estimate - exact| / exact"),
    m(
        "error_rate",
        "ratio",
        "failed or mismatched operations / attempted",
    ),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// A finished run.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: every metric in `defs`, which must all be present
    /// and finite.
    pub fn json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let value = *self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// A table of `defs` with their values and notes.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            let value = self.values.get(def.name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "  {:<40} {:>16.6} {:<8} -> {}",
                def.name, value, def.unit, def.note
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert_eq!(spec.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "three workloads plus every metric"
        );
    }

    #[test]
    fn result_line_has_every_metric_and_rejects_missing_or_non_finite_ones() {
        let mut report = Report {
            attempted: 3,
            failed: 0,
            values: Values::new(),
            lines: Vec::new(),
        };
        assert!(report.json(END_TO_END).is_err());
        for (i, def) in END_TO_END.iter().enumerate() {
            report.values.insert(def.name, 0.5 + i as f64);
        }
        let line = report.json(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        report.values.insert("setup_s", f64::NAN);
        assert!(report.json(END_TO_END).is_err());
        report.failed = 1;
        assert!(!report.correct());
    }
}

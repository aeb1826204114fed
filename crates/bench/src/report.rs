//! Rendering experiment results: fixed-width tables on stdout, CSV files
//! under `target/experiments/`, and the versioned machine-readable
//! `BENCH.json` report emitted by `tristream-cli bench`.
//!
//! # `BENCH.json` schema (version 10)
//!
//! Every row is a correctness gate whose statistic is a pure function of
//! the seed, so two runs with one seed write byte-identical files. Timing
//! is not part of the report: speed is measured by `perfbench` at real
//! shapes (`perfbench/README.md`).
//!
//! New fields may appear in later versions, existing fields keep their
//! name, type and meaning until a version removes them, and
//! `schema_version` is bumped on any change. Version 2 added the
//! equal-memory head-to-head fields `algo`, `memory_words` and
//! `budget_words`; version 3 added the `"hot-path"` value of `kind` (the
//! pooled-vs-reference bulk-counter race — no new fields); version 4
//! added the `"serve"` value of `kind` (the daemon's socket ingest/query
//! workloads — no new fields); version 5 added the derived
//! `parallel_vs_sequential_decode_speedup` field (the pipelined-reader
//! payoff the decode-pipeline gate watches); version 6 added the
//! `"snapshot"` value of `kind` and the nullable `snapshot_words` field
//! (checkpoint encode/restore latency and container size, with restore
//! bit-parity gated at exactly zero); version 7 removed the
//! `parallel_vs_sequential_decode_speedup` field together with the
//! pipelined reader and its `ingest-binary-parallel` row; version 8
//! removed the `engine-spawn-w{N}` rows together with the spawn-per-batch
//! baseline (no field changes); version 9 removed the `"ingest"` value of
//! `kind` with its `ingest-text` / `ingest-binary` rows, the `derived`
//! object with its `binary_vs_text_ingest_speedup` field, the
//! `serve-query` and `snapshot-encode` rows, and every
//! `engine-persistent-w{N}` row but the serve-ingest gate's partner;
//! version 10 removed every timing: the `"engine"` and `"hot-path"` values
//! of `kind` with the `engine-persistent-w4096` and `hotpath-*` rows, the
//! `p50_latency_secs`, `p95_latency_secs` and `edges_per_sec` fields, and
//! made `mean_rel_error` and `error_bound` non-nullable, since every
//! remaining row is gated. Field by field:
//!
//! * `schema` (string) — always `"tristream-bench"`.
//! * `schema_version` (integer) — `10`.
//! * `mode` (string) — `"smoke"` or `"full"`.
//! * `seed` (integer) — base RNG seed the whole suite derives from.
//! * `workloads` (array) — one object per named workload:
//!   * `name` (string) — stable workload identifier, e.g.
//!     `"accuracy-bulk-syn3reg"`, `"accuracy-jowhari-ghodsi"`,
//!     `"serve-ingest"`, `"snapshot-restore"`.
//!   * `kind` (string) — `"accuracy"`, `"serve"` or `"snapshot"`.
//!   * `edges` (integer) — edges processed per trial.
//!   * `trials` (integer) — number of seeded trials.
//!   * `batch` (integer | null) — batch size `w`, when the workload has one.
//!   * `shards` (integer | null) — worker shards, when parallel.
//!   * `estimators` (integer | null) — the algorithm's space parameter
//!     (estimator-pool size `r`; color count `N` for `pagh-tsourakakis`),
//!     when the workload runs an estimator.
//!   * `algo` (string | null) — registry name of the algorithm, for the
//!     equal-memory `accuracy-<algo>` head-to-head family and the serve
//!     and snapshot rows.
//!   * `memory_words` (integer | null) — the estimator's *measured*
//!     `memory_words()` after the stream (8-byte words, see
//!     `tristream_core::traits`), for head-to-head and snapshot workloads.
//!   * `budget_words` (integer | null) — the memory budget the workload's
//!     space parameter was sized for; comparing against `memory_words`
//!     shows how close the equal-space setup landed.
//!   * `snapshot_words` (integer | null) — size of the `TSS\0` snapshot
//!     container in 8-byte words (worst case across trials), for
//!     `snapshot` workloads; comparing against `memory_words` shows the
//!     serialization overhead of a checkpoint over the resident sketch.
//!   * `mean_rel_error` (number) — mean relative estimate error across
//!     trials (`|est − truth| / truth`) for accuracy workloads; the
//!     fraction of trials that were not bit-identical to their reference
//!     run for the parity workloads (`serve`, `snapshot`).
//!   * `error_bound` (number) — the documented bound the CI gate enforces;
//!     `mean_rel_error > error_bound` fails the gate. The parity bound is
//!     exactly `0`.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple column-aligned table: a header row plus data rows, rendered to
/// stdout by the experiment binaries and to CSV for EXPERIMENTS.md.
#[derive(Debug, Clone, Default)]
pub struct ExperimentTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one data row. The number of cells should match the header;
    /// short rows are padded with empty cells when rendering.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as an aligned text block.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let render_row = |row: &[String], widths: &[usize]| -> String {
            let mut out = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{cell:<width$}  "));
            }
            out.trim_end().to_string()
        };

        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows, comma-separated, quotes
    /// around cells containing commas).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes a table's CSV rendering to `target/experiments/<name>.csv` and
/// returns the path written (best effort: falls back to a temp directory if
/// `target/` is not writable).
pub fn write_csv(table: &ExperimentTable, name: &str) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let dir = if fs::create_dir_all(&dir).is_ok() {
        dir
    } else {
        std::env::temp_dir()
    };
    let path = dir.join(format!("{name}.csv"));
    if let Ok(mut file) = fs::File::create(&path) {
        let _ = file.write_all(table.to_csv().as_bytes());
    }
    path
}

/// What a named workload gates; serialised as the `kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Estimate accuracy against exact ground truth.
    Accuracy,
    /// Daemon parity over a real loopback socket: EDGES-frame ingest
    /// through `tristream-serve` must leave the served estimate
    /// bit-identical to an offline twin (bound exactly 0).
    Serve,
    /// Checkpoint mechanics: `TSS\0` container size vs resident
    /// `memory_words()`, and restore bit-parity against the uninterrupted
    /// run (bound exactly 0).
    Snapshot,
}

impl WorkloadKind {
    fn as_str(self) -> &'static str {
        match self {
            WorkloadKind::Accuracy => "accuracy",
            WorkloadKind::Serve => "serve",
            WorkloadKind::Snapshot => "snapshot",
        }
    }
}

/// One named workload's results — one element of the `workloads` array of
/// `BENCH.json` (schema documented at [module level](self)).
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. `accuracy-bulk-syn3reg` or `serve-ingest`.
    pub name: String,
    /// What the workload gates.
    pub kind: WorkloadKind,
    /// Edges processed per trial.
    pub edges: u64,
    /// Number of seeded trials.
    pub trials: usize,
    /// Batch size `w`, when the workload has one.
    pub batch: Option<usize>,
    /// Worker shards, when parallel.
    pub shards: Option<usize>,
    /// The algorithm's space parameter (estimator-pool size `r`, or color
    /// count `N`), when the workload runs an estimator.
    pub estimators: Option<usize>,
    /// Registry name of the algorithm (head-to-head, serve and snapshot).
    pub algo: Option<String>,
    /// Measured `memory_words()` after the stream (head-to-head, snapshot).
    pub memory_words: Option<u64>,
    /// Memory budget the space parameter was sized for.
    pub budget_words: Option<u64>,
    /// Size of the `TSS\0` snapshot container in 8-byte words, worst case
    /// across trials (snapshot workloads).
    pub snapshot_words: Option<u64>,
    /// Mean relative estimate error across trials (accuracy workloads), or
    /// the fraction of trials that broke bit-parity (serve, snapshot).
    pub mean_rel_error: f64,
    /// Documented bound the CI gate enforces.
    pub error_bound: f64,
}

impl WorkloadResult {
    /// Whether this workload violates its documented bound. An
    /// incomparable error (NaN) counts as a violation — a gate must never
    /// pass on garbage.
    pub fn exceeds_bound(&self) -> bool {
        !matches!(
            self.mean_rel_error.partial_cmp(&self.error_bound),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }
}

/// Builds a [`WorkloadResult`] from a gated statistic and its bound.
#[allow(clippy::too_many_arguments)]
pub fn summarize_workload(
    name: &str,
    kind: WorkloadKind,
    edges: u64,
    trials: usize,
    batch: Option<usize>,
    shards: Option<usize>,
    estimators: Option<usize>,
    (mean_rel_error, error_bound): (f64, f64),
) -> WorkloadResult {
    WorkloadResult {
        name: name.to_string(),
        kind,
        edges,
        trials,
        batch,
        shards,
        estimators,
        algo: None,
        memory_words: None,
        budget_words: None,
        snapshot_words: None,
        mean_rel_error,
        error_bound,
    }
}

/// The versioned machine-readable report emitted as `BENCH.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Base RNG seed the whole suite derives from.
    pub seed: u64,
    /// One entry per named workload, in execution order.
    pub workloads: Vec<WorkloadResult>,
}

/// The schema version this module writes (history in the [module docs](self)).
pub const BENCH_SCHEMA_VERSION: u32 = 10;

impl BenchReport {
    /// Looks up a workload by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Names of workloads whose gated statistic exceeds their documented
    /// bound — the CI gate fails when non-empty.
    pub fn gate_failures(&self) -> Vec<String> {
        self.workloads
            .iter()
            .filter(|w| w.exceeds_bound())
            .map(|w| w.name.clone())
            .collect()
    }

    /// Renders the report as pretty-printed JSON in the documented schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tristream-bench\",\n");
        out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"mode\": {},\n", json_string(&self.mode)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&w.name)));
            out.push_str(&format!(
                "      \"kind\": {},\n",
                json_string(w.kind.as_str())
            ));
            out.push_str(&format!("      \"edges\": {},\n", w.edges));
            out.push_str(&format!("      \"trials\": {},\n", w.trials));
            out.push_str(&format!("      \"batch\": {},\n", json_opt_usize(w.batch)));
            out.push_str(&format!(
                "      \"shards\": {},\n",
                json_opt_usize(w.shards)
            ));
            out.push_str(&format!(
                "      \"estimators\": {},\n",
                json_opt_usize(w.estimators)
            ));
            out.push_str(&format!(
                "      \"algo\": {},\n",
                w.algo
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_string)
            ));
            out.push_str(&format!(
                "      \"memory_words\": {},\n",
                w.memory_words
                    .map_or_else(|| "null".to_string(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"budget_words\": {},\n",
                w.budget_words
                    .map_or_else(|| "null".to_string(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"snapshot_words\": {},\n",
                w.snapshot_words
                    .map_or_else(|| "null".to_string(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"mean_rel_error\": {},\n",
                json_f64(w.mean_rel_error)
            ));
            out.push_str(&format!(
                "      \"error_bound\": {}\n",
                json_f64(w.error_bound)
            ));
            out.push_str(if i + 1 == self.workloads.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Writes the JSON rendering to `path`.
    pub fn write_json_file<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// A human-readable summary table of the same results, for stdout.
    pub fn to_table(&self) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            &format!("bench ({} mode, seed {})", self.mode, self.seed),
            &["workload", "edges", "rel err", "bound", "mem words"],
        );
        for w in &self.workloads {
            table.push_row(vec![
                w.name.clone(),
                w.edges.to_string(),
                format!("{:.4}", w.mean_rel_error),
                format!("{:.4}", w.error_bound),
                w.memory_words.map_or_else(|| "-".into(), |v| v.to_string()),
            ]);
        }
        table
    }
}

/// JSON string literal with the escapes the report can ever need.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats render via `Display` (never scientific, always valid
/// JSON); non-finite values become `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // Ensure a decimal point so the value reads as a float, not an int.
        let s = format!("{x}");
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn json_opt_usize(x: Option<usize>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> ExperimentTable {
        let mut t = ExperimentTable::new("Demo", &["dataset", "r", "error %"]);
        t.push_row(vec!["amazon".into(), "1024".into(), "6.28".into()]);
        t.push_row(vec![
            "orkut, scaled".into(),
            "1048576".into(),
            "3.55".into(),
        ]);
        t
    }

    #[test]
    fn render_aligns_columns_and_includes_everything() {
        let text = sample_table().render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("dataset"));
        assert!(text.contains("amazon"));
        assert!(text.contains("3.55"));
        // All rows rendered.
        assert_eq!(
            text.lines().count(),
            2 /* title+header */ + 1 /* rule */ + 2
        );
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "dataset,r,error %");
        assert!(lines[2].starts_with("\"orkut, scaled\""));
    }

    #[test]
    fn write_csv_creates_a_file() {
        let path = write_csv(&sample_table(), "unit-test-table");
        assert!(path.exists());
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains("amazon"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn empty_table_is_well_formed() {
        let t = ExperimentTable::new("Empty", &["a", "b"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.render().contains("Empty"));
        assert_eq!(t.to_csv(), "a,b\n");
    }

    // ------------------------------------------------------------------
    // BENCH.json schema tests, validated with a minimal JSON parser so a
    // malformed emitter (unbalanced braces, bare NaN, trailing comma)
    // fails here instead of in whatever tool consumes the artifact.
    // ------------------------------------------------------------------

    /// Parses one JSON value starting at `i`, returning the index one past
    /// its end. Panics (failing the test) on malformed input.
    fn parse_json_value(bytes: &[u8], mut i: usize) -> usize {
        let skip_ws = |bytes: &[u8], mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        i = skip_ws(bytes, i);
        assert!(i < bytes.len(), "unexpected end of JSON");
        match bytes[i] {
            b'{' | b'[' => {
                let (open, close) = if bytes[i] == b'{' {
                    (b'{', b'}')
                } else {
                    (b'[', b']')
                };
                i += 1;
                i = skip_ws(bytes, i);
                if bytes[i] == close {
                    return i + 1;
                }
                loop {
                    if open == b'{' {
                        i = skip_ws(bytes, i);
                        assert_eq!(bytes[i], b'"', "object key must be a string");
                        i = parse_json_value(bytes, i);
                        i = skip_ws(bytes, i);
                        assert_eq!(bytes[i], b':', "missing ':' after key");
                        i += 1;
                    }
                    i = parse_json_value(bytes, i);
                    i = skip_ws(bytes, i);
                    match bytes[i] {
                        b',' => i += 1,
                        c if c == close => return i + 1,
                        c => panic!("expected ',' or '{}', got '{}'", close as char, c as char),
                    }
                }
            }
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i + 1
            }
            b't' => {
                assert_eq!(&bytes[i..i + 4], b"true");
                i + 4
            }
            b'f' => {
                assert_eq!(&bytes[i..i + 5], b"false");
                i + 5
            }
            b'n' => {
                assert_eq!(&bytes[i..i + 4], b"null");
                i + 4
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    i += 1;
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap();
                text.parse::<f64>().expect("valid JSON number");
                i
            }
            c => panic!("unexpected character '{}' in JSON", c as char),
        }
    }

    /// Asserts `text` is exactly one valid JSON value.
    fn assert_valid_json(text: &str) {
        let bytes = text.as_bytes();
        let mut end = parse_json_value(bytes, 0);
        while end < bytes.len() {
            assert!(
                bytes[end].is_ascii_whitespace(),
                "trailing garbage after JSON value"
            );
            end += 1;
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            mode: "smoke".into(),
            seed: 7,
            workloads: vec![
                summarize_workload(
                    "accuracy-bulk-syn3reg",
                    WorkloadKind::Accuracy,
                    3_000,
                    3,
                    Some(8_192),
                    None,
                    Some(1_024),
                    (0.031, 0.15),
                ),
                {
                    let mut w = summarize_workload(
                        "accuracy-jowhari-ghodsi",
                        WorkloadKind::Accuracy,
                        3_000,
                        3,
                        None,
                        None,
                        Some(380),
                        (0.2, 0.9),
                    );
                    w.algo = Some("jowhari-ghodsi".into());
                    w.memory_words = Some(7_900);
                    w.budget_words = Some(8_192);
                    w
                },
                summarize_workload(
                    "serve-ingest",
                    WorkloadKind::Serve,
                    10_000,
                    3,
                    Some(1_024),
                    Some(2),
                    None,
                    (0.0, 0.0),
                ),
                {
                    let mut w = summarize_workload(
                        "snapshot-restore",
                        WorkloadKind::Snapshot,
                        10_000,
                        3,
                        Some(1_024),
                        Some(2),
                        None,
                        (0.0, 0.0),
                    );
                    w.snapshot_words = Some(4_200);
                    w.memory_words = Some(4_100);
                    w
                },
            ],
        }
    }

    #[test]
    fn bench_report_json_is_valid_and_carries_every_documented_field() {
        let json = sample_report().to_json();
        assert_valid_json(&json);
        for field in [
            "\"schema\"",
            "\"schema_version\"",
            "\"mode\"",
            "\"seed\"",
            "\"workloads\"",
            "\"name\"",
            "\"kind\"",
            "\"edges\"",
            "\"trials\"",
            "\"batch\"",
            "\"shards\"",
            "\"estimators\"",
            "\"algo\"",
            "\"memory_words\"",
            "\"budget_words\"",
            "\"snapshot_words\"",
            "\"mean_rel_error\"",
            "\"error_bound\"",
        ] {
            assert!(
                json.contains(field),
                "missing schema field {field}:\n{json}"
            );
        }
        assert!(json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(json.contains("\"tristream-bench\""));
    }

    #[test]
    fn serve_and_snapshot_kinds_serialise_in_current_schema() {
        let json = sample_report().to_json();
        assert_valid_json(&json);
        assert!(json.contains("\"kind\": \"serve\""), "{json}");
        assert!(json.contains("\"kind\": \"snapshot\""), "{json}");
        assert!(json.contains("\"snapshot_words\": 4200"), "{json}");
        // Workloads outside the snapshot family carry an explicit null.
        assert!(json.contains("\"snapshot_words\": null"), "{json}");
        // The parity rows serialise their exact-zero bound as a number.
        assert!(json.contains("\"error_bound\": 0.0"), "{json}");
    }

    #[test]
    fn gate_flags_only_workloads_over_their_bound() {
        let mut report = sample_report();
        assert!(report.gate_failures().is_empty());
        report.workloads[0].mean_rel_error = 0.2;
        assert_eq!(report.gate_failures(), vec!["accuracy-bulk-syn3reg"]);
        // A NaN error must fail the gate, not slip through a `<` compare.
        report.workloads[0].mean_rel_error = f64::NAN;
        assert_eq!(report.gate_failures().len(), 1);
        // A parity row fails on any mismatch: its bound is exactly zero.
        report.workloads[2].mean_rel_error = 1.0 / 3.0;
        assert_eq!(
            report.gate_failures(),
            vec!["accuracy-bulk-syn3reg", "serve-ingest"]
        );
    }

    #[test]
    fn json_floats_are_always_valid_json() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_valid_json(&json_f64(1234567890.125));
    }

    #[test]
    fn report_table_mirrors_the_workloads() {
        let t = sample_report().to_table();
        assert_eq!(t.len(), 4);
        let rendered = t.render();
        assert!(rendered.contains("snapshot-restore"));
        assert!(
            rendered.contains("7900"),
            "head-to-head rows show measured memory words:\n{rendered}"
        );
    }

    #[test]
    fn head_to_head_fields_serialise_with_values_and_as_null() {
        let json = sample_report().to_json();
        assert_valid_json(&json);
        assert!(json.contains("\"algo\": \"jowhari-ghodsi\""), "{json}");
        assert!(json.contains("\"memory_words\": 7900"), "{json}");
        assert!(json.contains("\"budget_words\": 8192"), "{json}");
        // Workloads outside the family carry explicit nulls.
        assert!(json.contains("\"algo\": null"), "{json}");
        assert!(json.contains("\"memory_words\": null"), "{json}");
    }

    #[test]
    fn write_json_file_round_trips() {
        let path = std::env::temp_dir().join(format!(
            "tristream-bench-report-{}.json",
            std::process::id()
        ));
        sample_report().write_json_file(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_valid_json(&text);
        fs::remove_file(&path).ok();
    }
}

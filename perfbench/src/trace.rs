//! An in-memory span recorder for the traced run.
//!
//! A span is a named interval at a layer boundary, recorded from the
//! benchmark's own code around a call into that layer. Spans that belong
//! to one frame or one query share an `id`; a span's `parent` is the span
//! that caused it. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Reads the wall clock. Every timing in this package goes through here,
/// so the workspace linter's clock rule has one documented exception.
pub fn now() -> Instant {
    // analyze: allow(D1, reason = "a benchmark measures wall-clock time; this is the package's single clock read")
    Instant::now()
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to a span opened with [`Tracer::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef(usize);

/// Collects spans when enabled; every call is a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-name totals: how many spans, their summed duration and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A new, empty recorder on the same epoch, for another thread.
    pub fn fork(&self, enabled: bool) -> Self {
        Self::new(enabled, self.epoch)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose bounds are already known, such as a query
    /// timed from its due time. Returns `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanRef> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            id,
            parent: parent.map(|p| p.0),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(SpanRef(self.spans.len() - 1))
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
    ) -> Option<SpanRef> {
        let now = now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: Option<SpanRef>) {
        if let Some(SpanRef(i)) = span {
            let end = self.ns(now());
            self.spans[i].end_ns = end;
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Appends another recorder's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the part of its interval that its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children) {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Tab-separated dump: name, id, parent index, start, end (ns).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tid\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let root = t.record("frame", 7, None, at(epoch, 0), at(epoch, 100));
        t.record("encode", 7, root, at(epoch, 10), at(epoch, 30));
        // Overlapping children are not double-counted.
        t.record("send", 7, root, at(epoch, 20), at(epoch, 50));
        t.record("send", 7, root, at(epoch, 90), at(epoch, 120));
        let totals = t.totals();
        assert_eq!(totals["frame"].total_ns, 100_000_000);
        // Covered: 10..50 and 90..100 = 50 ms.
        assert_eq!(totals["frame"].self_ns, 50_000_000);
        assert_eq!(totals["send"].count, 2);
        assert_eq!(totals["send"].self_ns, 60_000_000);
        assert!(t.spans().iter().all(|s| s.id == 7));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        assert!(off.time("x", 0, None, || 1) == 1);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(true, epoch);
        a.record("a", 0, None, at(epoch, 0), at(epoch, 1));
        let mut b = Tracer::new(true, epoch);
        let root = b.record("root", 1, None, at(epoch, 0), at(epoch, 10));
        b.record("child", 1, root, at(epoch, 2), at(epoch, 4));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.totals()["root"].self_ns, 8_000_000);
    }
}

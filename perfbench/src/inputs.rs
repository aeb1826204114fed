//! Workload inputs, all derived from the benchmark's `--seed`, and the
//! exact triangle counts the accuracy oracle compares against.

use std::fs;
use std::path::{Path, PathBuf};
use tristream_gen::{DatasetKind, StandIn};
use tristream_graph::Edge;

/// Scale-down of the Orkut stand-in for the offline job: 3.64M edges.
pub const OFFLINE_SCALE: u64 = 32;
/// Scale-down of the Orkut stand-in the serve workloads cycle through:
/// about 113K edges per pass.
pub const SERVE_BASE_SCALE: u64 = 1024;

/// The Orkut stand-in at `1/scale`, in its shuffled arrival order.
pub fn orkut(scale: u64, seed: u64) -> Vec<Edge> {
    StandIn::generate_scaled(DatasetKind::Orkut, scale, seed)
        .stream
        .into_edges()
}

/// Exact structure the accuracy oracle needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    pub triangles: u64,
    pub max_degree: u64,
}

/// Exact triangle count of the simple graph formed by `edges` (duplicates
/// ignored), by the forward algorithm over a degree ordering: each
/// triangle is found once, from its lowest-ranked vertex.
pub fn exact_triangles(edges: &[Edge]) -> Exact {
    let mut ids: Vec<u64> = edges.iter().flat_map(|e| [e.u().0, e.v().0]).collect();
    ids.sort_unstable();
    ids.dedup();
    let index = |x: u64| ids.partition_point(|&y| y < x);
    let mut pairs: Vec<(usize, usize)> = edges
        .iter()
        .map(|e| (index(e.u().0), index(e.v().0)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let n = ids.len();
    let mut degree = vec![0u64; n];
    for &(a, b) in &pairs {
        degree[a] += 1;
        degree[b] += 1;
    }
    let before = |a: usize, b: usize| (degree[a], a) < (degree[b], b);
    let mut start = vec![0usize; n + 1];
    for &(a, b) in &pairs {
        start[if before(a, b) { a } else { b } + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut out = vec![0usize; pairs.len()];
    for &(a, b) in &pairs {
        let (from, to) = if before(a, b) { (a, b) } else { (b, a) };
        out[fill[from]] = to;
        fill[from] += 1;
    }
    let mut mark = vec![usize::MAX; n];
    let mut triangles = 0u64;
    for u in 0..n {
        let succ = &out[start[u]..start[u + 1]];
        for &v in succ {
            mark[v] = u;
        }
        for &v in succ {
            triangles += out[start[v]..start[v + 1]]
                .iter()
                .filter(|&&w| mark[w] == u)
                .count() as u64;
        }
    }
    Exact {
        triangles,
        max_degree: degree.iter().copied().max().unwrap_or(0),
    }
}

/// Returns the exact counts cached at `path`, computing and caching them
/// first if needed. The cache is keyed by the caller through the path.
pub fn cached_exact(
    path: &Path,
    edges: impl FnOnce() -> Result<Vec<Edge>, String>,
) -> Result<Exact, String> {
    if let Ok(text) = fs::read_to_string(path) {
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        if let (Some(Ok(triangles)), Some(Ok(max_degree))) = (fields.next(), fields.next()) {
            return Ok(Exact {
                triangles,
                max_degree,
            });
        }
    }
    let exact = exact_triangles(&edges()?);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, format!("{} {}\n", exact.triangles, exact.max_degree))
        .and_then(|()| fs::rename(&tmp, path))
        .map_err(|e| format!("cannot cache exact counts at {}: {e}", path.display()))?;
    Ok(exact)
}

/// An endless stream of frames cut from `base`, relabelled on every pass
/// so that no edge repeats: pass `k` adds `k * stride` to every vertex id,
/// where `stride` exceeds every id in `base`.
#[derive(Debug, Clone)]
pub struct FrameSource<'a> {
    base: &'a [Edge],
    stride: u64,
    pos: usize,
    pass: u64,
}

impl<'a> FrameSource<'a> {
    /// # Panics
    ///
    /// Panics if `base` is empty.
    pub fn new(base: &'a [Edge]) -> Self {
        assert!(!base.is_empty(), "the base stream must not be empty");
        let stride = base.iter().map(|e| e.v().0).max().unwrap_or(0) + 1;
        Self {
            base,
            stride,
            pos: 0,
            pass: 0,
        }
    }

    /// Replaces `frame`'s contents with the next `len` edges.
    pub fn fill(&mut self, frame: &mut Vec<Edge>, len: usize) {
        frame.clear();
        while frame.len() < len {
            if self.pos == self.base.len() {
                self.pos = 0;
                self.pass += 1;
            }
            let (u, v) = self.base[self.pos].endpoints();
            let offset = self.pass * self.stride;
            frame.push(Edge::new(u.0 + offset, v.0 + offset));
            self.pos += 1;
        }
    }

    /// Exact triangles in the first `edges` edges of this source, given the
    /// exact count of one whole pass. Passes are vertex-disjoint copies of
    /// `base`, so full passes each contribute `per_pass`.
    pub fn exact_prefix_triangles(&self, edges: u64, per_pass: u64) -> u64 {
        let len = self.base.len() as u64;
        let partial = (edges % len) as usize;
        (edges / len) * per_pass + exact_triangles(&self.base[..partial]).triangles
    }
}

/// Writes `edges` to `path` as `.tsb` unless the file already exists.
pub fn ensure_tsb(path: &Path, edges: impl FnOnce() -> Vec<Edge>) -> Result<(), String> {
    if path.exists() {
        return Ok(());
    }
    let tmp = path.with_extension("tsb.tmp");
    tristream_graph::binary::write_edges_binary_file(&edges(), &tmp)
        .map_err(|e| e.to_string())
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Removes cached `.tsb` inputs in `dir` whose names start with `prefix`,
/// except `keep`, so the data directory holds one large input at a time.
pub fn prune_tsb(dir: &Path, prefix: &str, keep: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path: PathBuf = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(prefix) && name.ends_with(".tsb") && path != keep {
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tristream_graph::exact::triangles::count_triangles_in_stream;
    use tristream_graph::EdgeStream;

    #[test]
    fn exact_count_matches_the_workspace_counter() {
        for seed in 0..4 {
            let edges = orkut(4096, seed);
            let ours = exact_triangles(&edges);
            let theirs = count_triangles_in_stream(&EdgeStream::new(edges.clone()));
            assert_eq!(ours.triangles, theirs, "seed {seed}");
            assert!(ours.triangles > 0);
        }
        // A clique on 5 vertices, with a duplicate edge thrown in.
        let mut k5: Vec<Edge> = (0u64..5)
            .flat_map(|a| (a + 1..5).map(move |b| Edge::new(a, b)))
            .collect();
        k5.push(Edge::new(0u64, 1u64));
        assert_eq!(
            exact_triangles(&k5),
            Exact {
                triangles: 10,
                max_degree: 4
            }
        );
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        assert_eq!(orkut(4096, 11), orkut(4096, 11));
        assert_ne!(orkut(4096, 11), orkut(4096, 12));
        let base = orkut(4096, 3);
        let (mut a, mut b) = (FrameSource::new(&base), FrameSource::new(&base));
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            a.fill(&mut fa, 1000);
            b.fill(&mut fb, 1000);
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn relabelled_passes_never_repeat_an_edge() {
        let base = orkut(4096, 5);
        let mut source = FrameSource::new(&base);
        let total = base.len() * 3 + 17;
        let mut frame = Vec::new();
        source.fill(&mut frame, total);
        let distinct: HashSet<Edge> = frame.iter().copied().collect();
        assert_eq!(distinct.len(), total);
        // Later passes are relabelled copies: same structure, new ids.
        let pass1 = &frame[base.len()..2 * base.len()];
        let per_pass = exact_triangles(&base).triangles;
        assert_eq!(exact_triangles(pass1).triangles, per_pass);
        assert_eq!(
            source.exact_prefix_triangles(total as u64, per_pass),
            exact_triangles(&frame).triangles
        );
    }
}

//! The serve workloads' load generator and their correctness oracles.
//!
//! One process drives a `tristream-cli serve` child over two connections:
//! the calling thread sends EDGES frames back to back through
//! [`tristream_serve::Client`] (closed loop), and one more thread issues
//! QUERY on an open-loop schedule. [`Client`] is strict request/response,
//! so it could not send a query while the previous one is outstanding; the
//! query connection therefore writes frames with the same protocol and
//! framing calls the client uses, at their due times, and reads replies as
//! they arrive.

use crate::daemon::{Daemon, ScratchDir};
use crate::inputs::FrameSource;
use crate::trace::{now, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use tristream_baselines::registry::{find_algo, AlgoParams, AlgoSpec};
use tristream_core::{ShardedEstimator, TriangleEstimator};
use tristream_graph::frame;
use tristream_serve::checkpoint::{checkpoint_path, read_checkpoint};
use tristream_serve::table::{DEFAULT_STREAM_SHARDS, SERVE_STREAM_HINT};
use tristream_serve::{
    Client, CreateStream, EstimateReply, Request, Response, StreamCheckpoint, StreamStats,
    PROTOCOL_VERSION,
};

/// The one stream every serve workload creates.
pub const STREAM: &str = "bench";
/// The algorithm it runs: the CREATE default of the CLI and the registry.
pub const ALGO: &str = "neighborhood-bulk";
/// Open-loop query schedule: 100 queries per second.
pub const QUERY_INTERVAL: Duration = Duration::from_millis(10);
/// How long replies to already-sent queries may trail the window.
const REPLY_GRACE: Duration = Duration::from_secs(30);
/// Bound on a SHUTDOWN drain before the daemon is killed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// CREATE parameters of a serve workload.
pub fn create_spec(seed: u64, budget_words: u64, shards: u16) -> CreateStream {
    CreateStream {
        seed,
        budget_words,
        shards,
        ..CreateStream::new(STREAM, ALGO)
    }
}

/// Open-loop bookkeeping: query `i` is due at `start + i * interval`, and
/// its latency runs from that due time, not from when it was sent, so a
/// stall also charges the queries it delays.
#[derive(Debug)]
pub struct QueryLedger {
    start: Instant,
    interval: Duration,
    total: u64,
    next: u64,
    outstanding: VecDeque<(u64, Instant, Instant)>,
    /// Due → reply, per answered query.
    pub latency_ms: Vec<f64>,
    /// Due → send, per sent query: how late the generator ran.
    pub late_ms: Vec<f64>,
    /// Send → reply, per answered query.
    pub rtt_ms: Vec<f64>,
}

/// A reply matched to the query it answers.
#[derive(Debug, Clone, Copy)]
pub struct Answered {
    pub index: u64,
    pub due: Instant,
    pub sent: Instant,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl QueryLedger {
    pub fn new(start: Instant, interval: Duration, total: u64) -> Self {
        Self {
            start,
            interval,
            total,
            next: 0,
            outstanding: VecDeque::new(),
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            rtt_ms: Vec::new(),
        }
    }

    pub fn due(&self, index: u64) -> Instant {
        self.start + self.interval * u32::try_from(index).unwrap_or(u32::MAX)
    }

    /// Due time of the next unsent query, if any remain.
    pub fn next_due(&self) -> Option<Instant> {
        (self.next < self.total).then(|| self.due(self.next))
    }

    /// Records that the next query was sent at `at`.
    pub fn sent(&mut self, at: Instant) {
        let index = self.next;
        let due = self.due(index);
        self.late_ms.push(ms(at.saturating_duration_since(due)));
        self.outstanding.push_back((index, due, at));
        self.next += 1;
    }

    /// Matches a reply received at `at` to the oldest outstanding query
    /// (replies on one connection arrive in request order).
    pub fn replied(&mut self, at: Instant) -> Option<Answered> {
        let (index, due, sent) = self.outstanding.pop_front()?;
        self.latency_ms.push(ms(at.saturating_duration_since(due)));
        self.rtt_ms.push(ms(at.saturating_duration_since(sent)));
        Some(Answered { index, due, sent })
    }

    pub fn done(&self) -> bool {
        self.next == self.total && self.outstanding.is_empty()
    }

    /// Queries never sent plus queries sent but never answered.
    pub fn unanswered(&self) -> u64 {
        (self.total - self.next) + self.outstanding.len() as u64
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn sent_count(&self) -> u64 {
        self.next
    }
}

/// Served estimates to check against the offline twin, keyed by the
/// stream offset (edges ingested) each was taken at.
pub type Checks = BTreeMap<u64, Vec<u64>>;

/// What the query connection saw.
#[derive(Debug)]
pub struct QueryRun {
    pub ledger: QueryLedger,
    pub failed: u64,
    pub checks: Checks,
}

/// Removes one complete frame from the front of `buf`, if there is one.
fn take_frame(buf: &mut Vec<u8>) -> Result<Option<(u8, Vec<u8>)>, String> {
    if buf.len() < 5 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    if buf.len() < 5 + len {
        return Ok(None);
    }
    let parsed = frame::read_frame(&mut &buf[..5 + len]).map_err(|e| e.to_string())?;
    buf.drain(..5 + len);
    Ok(parsed)
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `conn` has data (or EOF) to read, or `timeout` passes;
/// returns whether it is readable. A socket read timeout cannot stand in
/// for this: it expires on the kernel tick, several milliseconds late,
/// which would make the open-loop generator late by as much.
fn wait_readable(conn: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out values for the
    // duration of the call; nfds is 1, matching the single `PollFd`; a null
    // signal mask is documented as "leave the mask unchanged".
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 => {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

fn send_request(conn: &mut TcpStream, request: &Request) -> Result<(), String> {
    let payload = request.encode_payload().map_err(|e| e.to_string())?;
    frame::write_frame(conn, request.frame_type().byte(), &payload).map_err(|e| e.to_string())?;
    conn.flush().map_err(|e| e.to_string())
}

/// Issues the ledger's queries on their schedule until all are answered
/// or `deadline` passes. Spans are recorded for queries due at or after
/// `trace_from`.
fn run_queries(
    addr: SocketAddr,
    mut ledger: QueryLedger,
    mut tracer: Tracer,
    trace_from: Option<Instant>,
    deadline: Instant,
) -> Result<(QueryRun, Tracer), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("query connect: {e}"))?;
    send_request(
        &mut conn,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    )?;
    match frame::read_frame(&mut conn).map_err(|e| e.to_string())? {
        Some((t, p)) if Response::decode(t, &p) == Ok(Response::Ok) => {}
        other => return Err(format!("query connection HELLO refused: {other:?}")),
    }
    let query = Request::Query {
        name: STREAM.to_string(),
    };
    let mut failed = 0;
    let mut checks = Checks::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !ledger.done() {
        let t = now();
        if ledger.next_due().is_some_and(|due| t >= due) {
            send_request(&mut conn, &query)?;
            ledger.sent(t);
            continue;
        }
        if t >= deadline {
            break;
        }
        let wake = ledger.next_due().unwrap_or(deadline).min(deadline);
        if !wait_readable(&conn, wake.saturating_duration_since(t))
            .map_err(|e| format!("poll: {e}"))?
        {
            continue;
        }
        let n = match conn.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the query connection".to_string()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("query read: {e}")),
        };
        let at = now();
        buf.extend_from_slice(&chunk[..n]);
        while let Some((t, payload)) = take_frame(&mut buf)? {
            let Some(answered) = ledger.replied(at) else {
                return Err("reply without an outstanding query".to_string());
            };
            match Response::decode(t, &payload) {
                Ok(Response::Estimate {
                    estimate, edges, ..
                }) => checks.entry(edges).or_default().push(estimate.to_bits()),
                _ => failed += 1,
            }
            if trace_from.is_some_and(|from| answered.due >= from) {
                let root = tracer.record("loadgen.query", answered.index, None, answered.due, at);
                tracer.record(
                    "serve.client.query",
                    answered.index,
                    root,
                    answered.sent,
                    at,
                );
            }
        }
    }
    failed += ledger.unanswered();
    Ok((
        QueryRun {
            ledger,
            failed,
            checks,
        },
        tracer,
    ))
}

/// One serve session's results.
#[derive(Debug)]
pub struct SessionResult {
    pub frames: u64,
    pub acked_edges: u64,
    /// Window start → reply to the closing QUERY.
    pub wall: Duration,
    /// Ingest rates of the untraced and traced halves of a traced run.
    pub half_rates: Option<(f64, f64)>,
    pub queries: QueryRun,
    pub final_reply: EstimateReply,
    pub stats: StreamStats,
    pub peak_rss_kib: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl SessionResult {
    pub fn ingest_edges_per_s(&self) -> f64 {
        self.acked_edges as f64 / self.wall.as_secs_f64()
    }
}

/// Drives one connected daemon for `window`: frames of `frame_len` edges
/// from `source` on `client`, queries on a second connection. A traced
/// session records spans into `tracer` for the second half of the window
/// only, so the first half gives the untraced rate the tracing overhead is
/// taken against.
pub fn run_session(
    daemon: &Daemon,
    client: &mut Client,
    source: &mut FrameSource<'_>,
    frame_len: usize,
    window: Duration,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<SessionResult, String> {
    let start = now();
    let half = start + window / 2;
    let total_queries = (window.as_nanos() / QUERY_INTERVAL.as_nanos()) as u64;
    let ledger = QueryLedger::new(start, QUERY_INTERVAL, total_queries);
    let deadline = start + window + REPLY_GRACE;
    let addr = daemon.addr;
    let query_tracer = tracer.fork(traced);
    tracer.set_enabled(false);
    let mut frame = Vec::with_capacity(frame_len);
    let mut frames = 0u64;
    let mut split: Option<(Instant, u64)> = None;
    let mut frame_failed = false;
    let (queries, final_reply) = std::thread::scope(|scope| {
        let query_thread = scope.spawn(move || {
            run_queries(addr, ledger, query_tracer, traced.then_some(half), deadline)
        });
        while start.elapsed() < window {
            if traced && split.is_none() && now() >= half {
                split = Some((now(), frames));
                tracer.set_enabled(true);
            }
            let root = tracer.open("loadgen.frame", frames, None);
            source.fill(&mut frame, frame_len);
            let sent = tracer.time("serve.client.edges", frames, root, || {
                client.send_edges(STREAM, &frame)
            });
            tracer.close(root);
            if let Err(e) = sent {
                eprintln!("perfbench: EDGES frame {frames} failed: {e}");
                frame_failed = true;
                break;
            }
            frames += 1;
        }
        let final_reply = client
            .query(STREAM)
            .map_err(|e| format!("closing QUERY: {e}"));
        let queries = query_thread
            .join()
            .map_err(|_| "query thread panicked".to_string())
            .and_then(|r| r);
        (queries, final_reply)
    });
    let wall = start.elapsed();
    tracer.set_enabled(traced);
    let (mut queries, query_tracer) = queries?;
    tracer.absorb(query_tracer);
    let final_reply = final_reply?;
    let acked_edges = frames * frame_len as u64;
    let mut failed = u64::from(frame_failed);
    if final_reply.edges != acked_edges {
        eprintln!(
            "perfbench: closing QUERY reports {} edges, {acked_edges} were acked",
            final_reply.edges
        );
        failed += 1;
    }
    queries
        .checks
        .entry(final_reply.edges)
        .or_default()
        .push(final_reply.estimate.to_bits());
    let half_rates = split.map(|(at, frames_at)| {
        let first = (frames_at * frame_len as u64) as f64 / (at - start).as_secs_f64();
        let second =
            ((frames - frames_at) * frame_len as u64) as f64 / (wall - (at - start)).as_secs_f64();
        (first, second)
    });
    let stats = client
        .stats()
        .map_err(|e| format!("STATS: {e}"))?
        .into_iter()
        .find(|s| s.name == STREAM)
        .ok_or("STATS does not list the stream")?;
    let peak_rss_kib = daemon
        .peak_rss_kib()
        .ok_or("cannot read the daemon's VmHWM")?;
    // Frames, the closing QUERY, STATS, and every scheduled query.
    let attempted = frames + u64::from(frame_failed) + 2 + queries.ledger.total();
    let failed = failed + queries.failed;
    Ok(SessionResult {
        frames,
        acked_edges,
        wall,
        half_rates,
        queries,
        final_reply,
        stats,
        peak_rss_kib,
        attempted,
        failed,
    })
}

/// Spawns a daemon, connects, and creates the stream; returns both and the
/// time from spawn to CREATE OK.
pub fn start_stream(
    cli: &Path,
    state_dir: Option<&Path>,
    spec: &CreateStream,
) -> Result<(Daemon, Client, Duration), String> {
    let t0 = now();
    let daemon = Daemon::spawn(cli, state_dir)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("HELLO: {e}"))?;
    client
        .create_stream(spec)
        .map_err(|e| format!("CREATE: {e}"))?;
    Ok((daemon, client, t0.elapsed()))
}

/// Sends SHUTDOWN and waits for the drain; false if either failed.
pub fn shutdown(daemon: Daemon, mut client: Client) -> bool {
    let acked = client.shutdown().is_ok();
    drop(client);
    daemon.wait_drained(DRAIN_LIMIT) && acked
}

/// Recovery after SIGKILL: the checkpoint the killed daemon left, and the
/// restarts made from it.
#[derive(Debug)]
pub struct Recovery {
    pub checkpoint: StreamCheckpoint,
    pub checkpoint_bytes: u64,
    /// Restart → checkpoint recovered → first QUERY answered, per restart.
    pub setup: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
}

/// Restarts a daemon on `state_dir` `restarts` times (killing each one
/// again), checking that the recovered stream sits at the checkpoint's
/// replay offset. Recovered estimates are added to `checks`.
pub fn recover(
    cli: &Path,
    state_dir: &ScratchDir,
    restarts: usize,
    checks: &mut Checks,
) -> Result<Recovery, String> {
    let path = checkpoint_path(state_dir.path(), STREAM);
    let checkpoint =
        read_checkpoint(&path).map_err(|e| format!("no checkpoint at {}: {e}", path.display()))?;
    let checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let mut setup = Vec::with_capacity(restarts);
    let mut failed = 0;
    for _ in 0..restarts {
        let t0 = now();
        let daemon = Daemon::spawn(cli, Some(state_dir.path()))?;
        let reply = Client::connect(daemon.addr)
            .and_then(|mut c| c.query(STREAM))
            .map_err(|e| format!("QUERY after restart: {e}"))?;
        setup.push(t0.elapsed());
        daemon.kill();
        if reply.edges != checkpoint.replay_edges {
            eprintln!(
                "perfbench: recovered stream at {} edges, checkpoint says {}",
                reply.edges, checkpoint.replay_edges
            );
            failed += 1;
        }
        checks
            .entry(reply.edges)
            .or_default()
            .push(reply.estimate.to_bits());
    }
    Ok(Recovery {
        checkpoint,
        checkpoint_bytes,
        setup,
        attempted: restarts as u64,
        failed,
    })
}

/// What CREATE resolves `spec` to by `docs/PROTOCOL.md`'s recipe: the
/// registry algorithm, the shard count, and each shard's space (the
/// budget's space under the serve sizing hint, split across shards when
/// the algorithm's state splits).
pub fn resolve(spec: &CreateStream) -> Result<(&'static AlgoSpec, usize, usize), String> {
    let algo = find_algo(&spec.algo).ok_or("unknown algorithm")?;
    let shards = if spec.shards == 0 {
        DEFAULT_STREAM_SHARDS
    } else {
        usize::from(spec.shards)
    };
    let budget = usize::try_from(spec.budget_words).unwrap_or(usize::MAX);
    let space = algo.space_for_budget(budget, &SERVE_STREAM_HINT);
    let shard_space = if algo.splits_across_shards {
        space.div_ceil(shards)
    } else {
        space
    };
    Ok((algo, shards, shard_space))
}

/// The offline twin: an engine built by the CREATE recipe, shard seeds
/// derived from the root seed.
pub fn twin(
    spec: &CreateStream,
) -> Result<ShardedEstimator<Box<dyn TriangleEstimator + Send>>, String> {
    let (algo, shards, shard_space) = resolve(spec)?;
    Ok(ShardedEstimator::from_factory(shards, spec.seed, |seed| {
        algo.build(&AlgoParams {
            space: shard_space,
            seed,
            window: None,
        })
    }))
}

/// Number of served estimates that differ from `expected` in any bit.
pub fn mismatches(expected: f64, served: &[u64]) -> u64 {
    served
        .iter()
        .filter(|&&bits| bits != expected.to_bits())
        .count() as u64
}

/// Feeds the twin the same `frames` frames the daemon acked and compares
/// every served estimate with the twin's at the same offset. Returns the
/// number of mismatches; an offset the twin never reaches is one too.
pub fn check_against_twin(
    spec: &CreateStream,
    mut source: FrameSource<'_>,
    frame_len: usize,
    frames: u64,
    checks: &Checks,
) -> Result<u64, String> {
    let mut twin = twin(spec)?;
    let mut pending = checks.iter().peekable();
    let mut bad = 0;
    let mut frame = Vec::with_capacity(frame_len);
    let mut offset = 0u64;
    for f in 0..=frames {
        while let Some((&at, served)) = pending.next_if(|(&at, _)| at <= offset) {
            bad += if at == offset {
                mismatches(twin.estimate(), served)
            } else {
                served.len() as u64
            };
        }
        if f == frames || pending.peek().is_none() {
            break;
        }
        source.fill(&mut frame, frame_len);
        twin.process_batch(&frame);
        offset += frame_len as u64;
    }
    bad += pending.map(|(_, served)| served.len() as u64).sum::<u64>();
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::orkut;
    use tristream_serve::table::{ingest_batch, query_stream};
    use tristream_serve::StreamTable;

    fn at(start: Instant, ms: u64) -> Instant {
        start + Duration::from_millis(ms)
    }

    #[test]
    fn query_latency_runs_from_the_due_time_not_the_send_time() {
        let start = Instant::now();
        let mut ledger = QueryLedger::new(start, QUERY_INTERVAL, 3);
        assert_eq!(ledger.next_due(), Some(start));
        // Query 0 goes out 15 ms late and is answered 5 ms after sending.
        ledger.sent(at(start, 15));
        assert_eq!(ledger.next_due(), Some(at(start, 10)));
        // Query 1 is due at 10 ms but can only go out at 20 ms.
        ledger.sent(at(start, 20));
        let first = ledger.replied(at(start, 20)).unwrap();
        assert_eq!(first.index, 0);
        let second = ledger.replied(at(start, 21)).unwrap();
        assert_eq!(second.index, 1);
        assert_eq!(ledger.latency_ms, vec![20.0, 11.0]);
        assert_eq!(ledger.rtt_ms, vec![5.0, 1.0]);
        assert_eq!(ledger.late_ms, vec![15.0, 10.0]);
        assert!(!ledger.done());
        assert_eq!(ledger.unanswered(), 1);
        ledger.sent(at(start, 30));
        assert!(ledger.replied(at(start, 31)).is_some());
        assert!(ledger.done());
        assert!(ledger.replied(at(start, 40)).is_none());
    }

    #[test]
    fn wait_readable_sees_data_and_times_out_without_it() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        assert!(!wait_readable(&conn, Duration::from_millis(1)).unwrap());
        peer.write_all(b"x").unwrap();
        assert!(wait_readable(&conn, Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn frames_are_taken_whole_from_a_byte_buffer() {
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, 9, b"abc").unwrap();
        frame::write_frame(&mut bytes, 4, b"").unwrap();
        let mut buf = bytes[..6].to_vec();
        assert_eq!(take_frame(&mut buf).unwrap(), None);
        buf.extend_from_slice(&bytes[6..]);
        assert_eq!(take_frame(&mut buf).unwrap(), Some((9, b"abc".to_vec())));
        assert_eq!(take_frame(&mut buf).unwrap(), Some((4, Vec::new())));
        assert!(buf.is_empty());
    }

    #[test]
    fn the_twin_matches_a_served_stream_and_catches_a_perturbed_estimate() {
        let base = orkut(4096, 2);
        let spec = create_spec(17, 1 << 14, 0);
        let table = StreamTable::new();
        table
            .create(STREAM, ALGO, spec.seed, spec.budget_words, spec.shards, 0)
            .unwrap();
        let entry = table.require(STREAM).unwrap();
        let (frame_len, frames) = (256, 40u64);
        let mut source = FrameSource::new(&base);
        let mut frame = Vec::new();
        let mut checks = Checks::new();
        for f in 0..frames {
            source.fill(&mut frame, frame_len);
            ingest_batch(&entry, &frame);
            if f % 7 == 0 {
                let (estimate, edges, _) = query_stream(&entry);
                checks.entry(edges).or_default().push(estimate.to_bits());
            }
        }
        let clean = FrameSource::new(&base);
        assert_eq!(
            check_against_twin(&spec, clean.clone(), frame_len, frames, &checks).unwrap(),
            0
        );

        let mut perturbed = checks.clone();
        let last = perturbed.values_mut().last().unwrap();
        last[0] ^= 1;
        assert_eq!(
            check_against_twin(&spec, clean.clone(), frame_len, frames, &perturbed).unwrap(),
            1
        );
        // An offset past the acked frames can never match.
        let mut beyond = checks.clone();
        beyond.insert(frames * frame_len as u64 + 1, vec![0]);
        assert_eq!(
            check_against_twin(&spec, clean, frame_len, frames, &beyond).unwrap(),
            1
        );
        assert_eq!(mismatches(1.5, &[1.5f64.to_bits(), 1.25f64.to_bits()]), 1);
    }
}

//! Integration tests driving a real daemon over a real TCP socket: offline
//! parity (bit-identical estimates), multi-tenant isolation, malformed-frame
//! survival, and graceful drain.

// Test harness: helper fns may abort on setup failure (clippy's
// allow-expect-in-tests only covers `#[test]` bodies, not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::SocketAddr;
use std::thread::JoinHandle;
use tristream_baselines::registry::{find_algo, AlgoParams};
use tristream_core::{ShardedEstimator, TriangleEstimator};
use tristream_graph::Edge;
use tristream_serve::protocol::{ErrorCode, FrameType, Request};
use tristream_serve::{Client, ClientError, CreateStream, Server, SERVE_STREAM_HINT};

/// Binds a daemon on an ephemeral loopback port and runs it on a
/// background thread. The returned handle joins cleanly once a client
/// sends SHUTDOWN.
fn spawn_server() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// A deterministic triangle-rich test stream.
fn test_edges() -> Vec<Edge> {
    tristream_gen::triangle_rich_three_regular(600, 3)
        .edges()
        .to_vec()
}

/// Builds the offline twin of a served stream: the same engine recipe the
/// server documents in `docs/PROTOCOL.md` — `space_for_budget` under
/// `SERVE_STREAM_HINT`, `div_ceil` pool split, `shard_seed` seeding via
/// `from_factory`.
fn offline_engine(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
) -> ShardedEstimator<Box<dyn TriangleEstimator + Send>> {
    let spec = find_algo(algo).expect("registry algorithm");
    let space = spec.space_for_budget(budget_words as usize, &SERVE_STREAM_HINT);
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

#[test]
fn served_estimate_is_bit_identical_to_the_offline_parallel_path() {
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let (algo, seed, budget, shards, batch) = ("neighborhood-bulk", 42u64, 1u64 << 14, 3u16, 128);

    let mut client = Client::connect(addr).expect("connect");
    let mut spec = CreateStream::new("parity", algo);
    spec.seed = seed;
    spec.budget_words = budget;
    spec.shards = shards;
    client.create_stream(&spec).expect("create");
    client
        .send_edges_batched("parity", &edges, batch)
        .expect("ingest");
    let served = client.query("parity").expect("query");

    // The offline `count --algo --parallel` path, same seed, same batch
    // boundaries.
    let mut offline = offline_engine(algo, seed, budget, shards as usize);
    for chunk in edges.chunks(batch) {
        offline.process_batch(chunk);
    }
    assert_eq!(
        served.estimate.to_bits(),
        offline.estimate().to_bits(),
        "served {} vs offline {}",
        served.estimate,
        offline.estimate()
    );
    assert_eq!(served.edges, edges.len() as u64);
    assert_eq!(served.memory_words, offline.memory_words() as u64);

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn one_daemon_sustains_two_isolated_streams_with_different_algorithms() {
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let batch = 200;

    // Two tenants, two different registry algorithms, interleaved ingest
    // from two concurrent connections.
    let mut alice = Client::connect(addr).expect("connect alice");
    let mut bob = Client::connect(addr).expect("connect bob");
    let mut spec_a = CreateStream::new("alice", "neighborhood-bulk");
    spec_a.seed = 7;
    spec_a.shards = 2;
    alice.create_stream(&spec_a).expect("create alice");
    let mut spec_b = CreateStream::new("bob", "pagh-tsourakakis");
    spec_b.seed = 11;
    spec_b.shards = 2;
    bob.create_stream(&spec_b).expect("create bob");

    // Interleave: alternate batches between the tenants' connections.
    let chunks: Vec<&[Edge]> = edges.chunks(batch).collect();
    for chunk in &chunks {
        alice.send_edges("alice", chunk).expect("alice edges");
        bob.send_edges("bob", chunk).expect("bob edges");
    }

    let got_a = alice.query("alice").expect("query alice");
    let got_b = bob.query("bob").expect("query bob");

    // Each tenant matches its own offline twin despite the interleaving.
    let mut twin_a = offline_engine("neighborhood-bulk", 7, spec_a.budget_words, 2);
    let mut twin_b = offline_engine("pagh-tsourakakis", 11, spec_b.budget_words, 2);
    for chunk in &chunks {
        twin_a.process_batch(chunk);
        twin_b.process_batch(chunk);
    }
    assert_eq!(got_a.estimate.to_bits(), twin_a.estimate().to_bits());
    assert_eq!(got_b.estimate.to_bits(), twin_b.estimate().to_bits());

    // STATS sees both tenants, in creation order, with live counters.
    let stats = alice.stats().expect("stats");
    assert_eq!(stats.len(), 2);
    assert_eq!(stats[0].name, "alice");
    assert_eq!(stats[0].algo, "neighborhood-bulk");
    assert_eq!(stats[1].name, "bob");
    assert_eq!(stats[1].algo, "pagh-tsourakakis");
    for s in &stats {
        assert_eq!(s.edges, edges.len() as u64);
        assert_eq!(s.ingest_batches, chunks.len() as u64);
        assert_eq!(s.queries, 1);
        assert!(s.memory_words > 0);
    }

    // DELETE tears one tenant down; the other keeps serving.
    bob.delete("bob").expect("delete bob");
    let err = bob.query("bob").expect_err("bob is gone");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::UnknownStream)
    );
    let still = alice.query("alice").expect("alice still lives");
    assert_eq!(still.estimate.to_bits(), got_a.estimate.to_bits());

    alice.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn concurrent_queries_do_not_perturb_ingest_results() {
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let batch = 64;

    let mut ingest = Client::connect(addr).expect("connect ingest");
    let mut spec = CreateStream::new("live", "neighborhood-bulk");
    spec.seed = 5;
    spec.shards = 2;
    ingest.create_stream(&spec).expect("create");

    // A second connection hammers queries while the first ingests.
    let querier = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect querier");
        let mut replies = 0u32;
        for _ in 0..50 {
            let reply = client.query("live").expect("mid-stream query");
            assert!(reply.estimate.is_finite());
            replies += 1;
        }
        replies
    });
    for chunk in edges.chunks(batch) {
        ingest.send_edges("live", chunk).expect("edges");
    }
    assert_eq!(querier.join().expect("querier"), 50);

    // Mid-stream queries must not have changed the final state: still
    // bit-identical to the offline twin.
    let served = ingest.query("live").expect("final query");
    let mut twin = offline_engine("neighborhood-bulk", 5, spec.budget_words, 2);
    for chunk in edges.chunks(batch) {
        twin.process_batch(chunk);
    }
    assert_eq!(served.estimate.to_bits(), twin.estimate().to_bits());

    ingest.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn malformed_frames_get_error_replies_and_the_server_survives() {
    let (addr, server) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client
        .create_stream(&CreateStream::new("sturdy", "exact"))
        .expect("create");

    // Unknown frame type: ERROR frame, connection stays usable.
    let (t, payload) = client
        .raw_roundtrip(0x55, b"junk")
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::MalformedFrame.byte());

    // Truncated CREATE payload: ERROR frame, still usable.
    let (t, payload) = client
        .raw_roundtrip(FrameType::Create.byte(), &[1, 2, 3])
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::MalformedFrame.byte());

    // EDGES with a corrupt embedded .tsb stream: BAD_EDGE_PAYLOAD.
    let mut bad_edges = Request::Edges {
        name: "sturdy".to_string(),
        edges: vec![Edge::new(1u64, 2u64)],
    }
    .encode_payload()
    .expect("encode");
    let len = bad_edges.len();
    bad_edges.truncate(len - 3); // truncate inside the record data
    let (t, payload) = client
        .raw_roundtrip(FrameType::Edges.byte(), &bad_edges)
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::BadEdgePayload.byte());

    // Requests against missing streams: UNKNOWN_STREAM.
    let err = client.query("missing").expect_err("unknown stream");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::UnknownStream)
    );

    // After all that abuse, the server still answers real work correctly.
    client
        .send_edges(
            "sturdy",
            &[
                Edge::new(1u64, 2u64),
                Edge::new(2u64, 3u64),
                Edge::new(1u64, 3u64),
            ],
        )
        .expect("edges");
    let reply = client.query("sturdy").expect("query");
    assert_eq!(reply.estimate, 1.0, "exact counter sees the one triangle");

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn connections_that_skip_the_handshake_are_refused() {
    let (addr, server) = spawn_server();
    // Speak raw frames without HELLO: first request must be refused and
    // the connection closed.
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = &conn;
    let payload = Request::Stats.encode_payload().expect("encode");
    tristream_graph::frame::write_frame(&mut writer, FrameType::Stats.byte(), &payload)
        .expect("write");
    let (t, payload) = tristream_graph::frame::read_frame(&mut &conn)
        .expect("read")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::MalformedFrame.byte());
    assert!(
        tristream_graph::frame::read_frame(&mut &conn)
            .expect("read")
            .is_none(),
        "server hangs up after refusing the handshake"
    );

    // A proper client still gets in afterwards.
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn graceful_drain_flushes_batches_answers_queries_and_joins_everything() {
    let (addr, server) = spawn_server();
    let edges = test_edges();

    let mut client = Client::connect(addr).expect("connect");
    let mut spec = CreateStream::new("draining", "neighborhood-bulk");
    spec.seed = 3;
    spec.shards = 4;
    client.create_stream(&spec).expect("create");
    client
        .send_edges_batched("draining", &edges, 64)
        .expect("ingest");

    // A second connection is mid-session when the drain starts.
    let mut bystander = Client::connect(addr).expect("connect bystander");

    client.shutdown().expect("shutdown acked");

    // The draining server still answers reads on live connections but
    // refuses new mutations.
    let reply = bystander.query("draining").expect("read during drain");
    assert_eq!(reply.edges, edges.len() as u64);
    let err = bystander
        .send_edges("draining", &edges[..3])
        .expect_err("mutations refused during drain");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::Draining)
    );
    drop(bystander);

    // run() returning Ok proves: accept loop exited, every handler thread
    // joined, every engine flushed its queues and joined its workers, and
    // nothing panicked on the way down.
    server
        .join()
        .expect("no panicking threads")
        .expect("clean drain");

    // The port is actually released: new connections are refused (or reset),
    // not served.
    assert!(
        Client::connect(addr).is_err(),
        "daemon must be gone after the drain"
    );
}

#[test]
fn version_mismatches_are_refused_with_unsupported_version() {
    let (addr, server) = spawn_server();
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = &conn;
    let hello = Request::Hello { version: 99 }
        .encode_payload()
        .expect("encode");
    tristream_graph::frame::write_frame(&mut writer, FrameType::Hello.byte(), &hello)
        .expect("write");
    let (t, payload) = tristream_graph::frame::read_frame(&mut &conn)
        .expect("read")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::UnsupportedVersion.byte());
    drop(conn);

    let mut client = Client::connect(addr).expect("current version still welcome");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

/// Regression guard for the Nagle × delayed-ACK stall: a frame written in
/// pieces onto a socket without `TCP_NODELAY` waits up to 40 ms for the
/// peer's ACK, so 100 round trips took seconds. Without the stall each is
/// well under a millisecond, even in a debug build. Both request types
/// that carry a payload are guarded: 100 EDGES frames (ingest), then 100
/// QUERY frames.
#[test]
fn query_round_trips_do_not_stall_on_the_socket() {
    let (addr, server) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client
        .create_stream(&CreateStream::new("quick", "neighborhood-bulk"))
        .expect("create");
    let start = std::time::Instant::now();
    let frames = client
        .send_edges_batched("quick", &test_edges()[..800], 8)
        .expect("edges");
    let edges_elapsed = start.elapsed();
    assert_eq!(frames, 100);
    let start = std::time::Instant::now();
    for _ in 0..100 {
        client.query("quick").expect("query");
    }
    let query_elapsed = start.elapsed();
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    for (frame, elapsed) in [("EDGES", edges_elapsed), ("QUERY", query_elapsed)] {
        assert!(
            elapsed < std::time::Duration::from_millis(1500),
            "100 {frame} round trips took {elapsed:?}"
        );
    }
}

/// Compile-time-ish guard used by the drain test above: a `ClientError`
/// display never panics (exercises the error plumbing end to end).
#[test]
fn client_errors_render() {
    let err = ClientError::Protocol("demo".to_string());
    assert!(err.to_string().contains("demo"));
}

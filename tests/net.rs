//! Network-parity contract of the `cc-net` layer: a multi-threaded
//! [`CcClient`] swarm pushing ≥ 64 mixed requests (all seven entry
//! points, errors mid-stream, pipelined with out-of-order completion)
//! through a loopback [`NetServer`] on 1- and 4-shard fleets, under both
//! reactor backends, must yield results **bit-identical** to sequential
//! [`CliqueService`] execution — the TCP hop, the codec, the readiness
//! backend, the per-connection multiplexing and the shard interleaving
//! all invisible in the answers. Plus: malformed frames are
//! rejected deterministically without hurting other connections, and
//! shutdown drains every queued reply before closing sockets.

use std::collections::HashMap;
use std::net::TcpStream;

use cc_rand::DetRng;
use congested_clique::net::codec::{self, Frame};
use congested_clique::net::frame;
use congested_clique::server::QueryResult;
use congested_clique::workloads::RequestMix;
use congested_clique::{
    CcClient, CliqueService, NetError, NetServer, NetServerConfig, ReactorBackend, Request,
    ServerConfig, ServerError, WireError,
};

/// The mixed workload: 58 generated requests over three clique sizes
/// (census requests error on all of them — deliberate mid-stream error
/// traffic) plus handcrafted edge cases, deterministically shuffled.
fn mixed_requests() -> Vec<Request> {
    let mut requests = RequestMix::new(vec![8usize, 9, 16])
        .with_zipf_theta(0.8)
        .generate(58, 2013);
    let keys9: Vec<Vec<u64>> = (0..9).map(|i| vec![i as u64, 7]).collect();
    requests.push(Request::Select {
        keys: keys9.clone(),
        rank: u64::MAX,
    }); // out-of-range rank: query error
    requests.push(Request::Sort(Vec::new())); // n == 0: construction error
    requests.push(Request::Sort(vec![vec![u64::MAX]; 9])); // sentinel key
    requests.push(Request::Mode(vec![vec![7]; 4])); // size outside the mix

    // A census large enough to actually succeed (2 values × ⌈log₂129⌉² = 128).
    let census_keys: Vec<Vec<u64>> = (0..128)
        .map(|v| (0..64).map(|i| ((v + i) % 2) as u64).collect())
        .collect();
    requests.push(Request::SmallKeyCensus {
        keys: census_keys,
        key_bits: 1,
    });
    requests.push(Request::GlobalIndices(keys9));
    assert!(requests.len() >= 64, "want at least 64 requests");
    let mut rng = DetRng::seed_from_u64(97);
    rng.shuffle(&mut requests);
    requests
}

/// The sequential reference: one warm `CliqueService` per clique size,
/// every request served in submission order (same as `tests/server.rs`).
fn sequential_reference(requests: &[Request]) -> Vec<QueryResult> {
    let mut services: HashMap<usize, CliqueService> = HashMap::new();
    requests
        .iter()
        .map(|request| {
            let n = request.n();
            let service = match services.entry(n) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(CliqueService::new(n)?)
                }
            };
            request.serve_on(service)
        })
        .collect()
}

/// 8 concurrent `CcClient`s (one TCP connection each), each pipelining
/// its strided share in chunks of 5 — chunks mix clique sizes, so on a
/// multi-shard fleet replies genuinely complete out of order and the
/// request-id correlation is what restores request order.
fn serve_over_tcp(server: &NetServer, requests: &[Request]) -> Vec<QueryResult> {
    const CLIENTS: usize = 8;
    const CHUNK: usize = 5;
    let addr = server.local_addr();
    let answers: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = CcClient::connect(addr).expect("connect");
                    let mine: Vec<usize> = (t..requests.len()).step_by(CLIENTS).collect();
                    let mut results = Vec::with_capacity(mine.len());
                    for chunk in mine.chunks(CHUNK) {
                        let batch: Vec<Request> =
                            chunk.iter().map(|&i| requests[i].clone()).collect();
                        let replies = client.pipeline(&batch).expect("pipeline");
                        for (&index, reply) in chunk.iter().zip(replies) {
                            let result = match reply {
                                Ok(outcome) => Ok(outcome),
                                Err(ServerError::Query(e)) => Err(e),
                                Err(other) => panic!("server-level failure: {other}"),
                            };
                            results.push((index, result));
                        }
                    }
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut results: Vec<Option<QueryResult>> = Vec::new();
    results.resize_with(requests.len(), || None);
    for (index, result) in answers {
        results[index] = Some(result);
    }
    results.into_iter().map(Option::unwrap).collect()
}

#[test]
fn tcp_swarm_is_bit_identical_to_sequential_service() {
    let requests = mixed_requests();
    let reference = sequential_reference(&requests);
    let failures = reference.iter().filter(|r| r.is_err()).count();
    assert!(failures >= 6, "want error-carrying requests mid-stream");
    assert!(
        reference.len() - failures >= 40,
        "want plenty of successes too"
    );

    // Both readiness backends, same wire contract: epoll and its
    // `poll(2)` oracle must be indistinguishable in answers *and* in wire
    // telemetry.
    for backend in [ReactorBackend::Epoll, ReactorBackend::Poll] {
        for shards in [1usize, 4] {
            let server = NetServer::bind(
                "127.0.0.1:0",
                NetServerConfig::new(shards)
                    .with_reactor_backend(backend)
                    .with_fleet(
                        ServerConfig::new(shards)
                            .with_queue_capacity(16)
                            .with_coalesce_limit(8),
                    ),
            )
            .expect("bind");
            let served = serve_over_tcp(&server, &requests);
            for (index, (got, want)) in served.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "{shards}-shard {backend:?} TCP server diverged on request {index} ({:?} n={})",
                    std::mem::discriminant(&requests[index]),
                    requests[index].n()
                );
            }
            let stats = server.shutdown();
            assert_eq!(stats.connections, 8);
            assert_eq!(stats.frames_in, requests.len() as u64);
            assert_eq!(stats.frames_out, requests.len() as u64);
            assert_eq!(stats.protocol_errors, 0);
            assert_eq!(stats.idle_teardowns, 0);
            assert_eq!(stats.fleet.requests(), requests.len() as u64);
            assert!(stats.fleet.shards.iter().all(|s| s.queue_depth == 0));
        }
    }
}

/// Malformed input tears down only the offending connection, with a
/// deterministic protocol-error notice; well-behaved connections on the
/// same server are untouched.
#[test]
fn malformed_frames_are_rejected_deterministically() {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::new(1)).expect("bind");
    let addr = server.local_addr();

    // (a) Garbage payload: decodes to an unsupported version.
    let mut raw = TcpStream::connect(addr).unwrap();
    frame::write_frame(&mut raw, &[0xFF, 0xEE, 0xDD]).unwrap();
    let notice = frame::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .expect("notice frame");
    match codec::decode_frame(&notice) {
        Ok(Frame::ProtocolError { error, .. }) => {
            assert_eq!(error, WireError::UnsupportedVersion { found: 0xFF });
        }
        other => panic!("expected protocol error notice, got {other:?}"),
    }
    // The connection is closed after the notice.
    assert!(frame::read_frame(&mut raw, 1 << 20).unwrap().is_none());

    // (b) A truncated request body (valid header, missing fields).
    let mut raw = TcpStream::connect(addr).unwrap();
    let valid = codec::encode_request(3, &Request::Mode(vec![vec![1], vec![2]]));
    frame::write_frame(&mut raw, &valid[..valid.len() - 2]).unwrap();
    let notice = frame::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .expect("notice frame");
    match codec::decode_frame(&notice) {
        Ok(Frame::ProtocolError { id, error }) => {
            // The header parsed before the body failed, so the notice
            // names the offending request.
            assert_eq!(id, 3);
            assert_eq!(error, WireError::Truncated);
        }
        other => panic!("expected protocol error notice, got {other:?}"),
    }
    assert!(frame::read_frame(&mut raw, 1 << 20).unwrap().is_none());

    // (c) The client library surfaces the notice as RemoteProtocol: ship
    // a frame kind only servers may send.
    let mut client = CcClient::connect(addr).expect("connect");
    let mut raw = TcpStream::connect(addr).unwrap();
    frame::write_frame(
        &mut raw,
        &codec::encode_reply(5, &Err(ServerError::Overloaded)),
    )
    .unwrap();
    let notice = frame::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .expect("notice frame");
    match codec::decode_frame(&notice) {
        Ok(Frame::ProtocolError { id, error }) => {
            // The notice echoes the offending frame's parsed request id.
            assert_eq!(id, 5);
            assert_eq!(
                error,
                WireError::Malformed {
                    reason: "clients may send only request frames".into()
                }
            );
        }
        other => panic!("expected protocol error notice, got {other:?}"),
    }

    // (d) The untouched client still gets correct service afterwards.
    let keys: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64]).collect();
    let outcome = client
        .call(&Request::Mode(keys.clone()))
        .expect("healthy call");
    let reference = Request::Mode(keys)
        .serve_on(&mut CliqueService::new(8).unwrap())
        .unwrap();
    assert_eq!(outcome, reference);

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 3);
    assert_eq!(stats.frames_in, 1);
}

/// Shutdown drains: requests already accepted by a connection's reader
/// are answered and written out before the socket closes. The bulk lands
/// on one shard; a marker request on a *different* shard proves (reader
/// is sequential) that every bulk request was accepted before shutdown
/// fires; the client must then still receive every bulk reply, then a
/// clean EOF.
#[test]
fn shutdown_drains_every_queued_reply_before_closing() {
    // 4 shards: n=16 and n=9 hash to different shards (asserted below via
    // distinct completion behavior being irrelevant — parity is what
    // matters); a deep queue keeps the bulk waiting.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig::new(4).with_fleet(
            ServerConfig::new(4)
                .with_queue_capacity(32)
                .with_coalesce_limit(4),
        ),
    )
    .expect("bind");
    let addr = server.local_addr();

    let bulk_keys: Vec<Vec<u64>> = (0..16)
        .map(|i| (0..16).map(|j| ((i * 5 + j) % 23) as u64).collect())
        .collect();
    let bulk = Request::Sort(bulk_keys);
    let marker = Request::Mode((0..9).map(|i| vec![i as u64]).collect());
    const BULK: u64 = 12;

    let mut reference_service = CliqueService::new(16).unwrap();
    let bulk_reference = bulk.serve_on(&mut reference_service).unwrap();
    let marker_reference = marker
        .serve_on(&mut CliqueService::new(9).unwrap())
        .unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    for id in 0..BULK {
        frame::write_frame(&mut stream, &codec::encode_request(id, &bulk)).unwrap();
    }
    frame::write_frame(&mut stream, &codec::encode_request(BULK, &marker)).unwrap();

    // Read until the marker's reply: at that point the sequential reader
    // has accepted all BULK requests (it submitted the marker after them).
    let mut received: Vec<(u64, codec::WireResult)> = Vec::new();
    loop {
        let payload = frame::read_frame(&mut stream, 1 << 26)
            .unwrap()
            .expect("reply before EOF");
        match codec::decode_frame(&payload).unwrap() {
            Frame::Reply { id, result } => {
                let is_marker = id == BULK;
                received.push((id, result));
                if is_marker {
                    break;
                }
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Shut down while bulk replies are (typically) still queued. The
    // contract: every accepted request's reply still arrives, then EOF.
    let shutdown = std::thread::spawn(move || server.shutdown());
    while received.len() < (BULK + 1) as usize {
        let payload = frame::read_frame(&mut stream, 1 << 26)
            .unwrap()
            .unwrap_or_else(|| panic!("EOF after only {} replies", received.len()));
        match codec::decode_frame(&payload).unwrap() {
            Frame::Reply { id, result } => received.push((id, result)),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(frame::read_frame(&mut stream, 1 << 26).unwrap().is_none());
    let stats = shutdown.join().expect("shutdown thread");
    assert_eq!(stats.frames_in, BULK + 1);
    assert_eq!(stats.frames_out, BULK + 1);
    assert_eq!(stats.fleet.requests(), BULK + 1);

    // Parity of every drained reply.
    for (id, result) in received {
        let outcome = result.expect("all requests succeed");
        if id == BULK {
            assert_eq!(outcome, marker_reference.clone());
        } else {
            assert_eq!(outcome, bulk_reference.clone());
        }
    }
}

/// A pipeline far deeper than the in-flight window (and than the shard
/// queue) completes correctly: the sliding window interleaves writes and
/// reads, so no buffer anywhere has to absorb the whole batch.
#[test]
fn deep_pipelines_slide_through_the_window() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig::new(2).with_fleet(
            ServerConfig::new(2)
                .with_queue_capacity(4)
                .with_coalesce_limit(4),
        ),
    )
    .expect("bind");
    let mut client = CcClient::connect(server.local_addr()).expect("connect");
    let keys4: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
    let keys5: Vec<Vec<u64>> = (0..5).map(|i| vec![i as u64 * 3]).collect();
    let requests: Vec<Request> = (0..100)
        .map(|i| {
            if i % 2 == 0 {
                Request::Mode(keys4.clone())
            } else {
                Request::Mode(keys5.clone())
            }
        })
        .collect();
    let reference = sequential_reference(&requests);
    let results = client.pipeline(&requests).expect("deep pipeline");
    assert_eq!(results.len(), 100);
    for ((got, want), index) in results.iter().zip(&reference).zip(0..) {
        match (got, want) {
            (Ok(outcome), Ok(reference)) => assert_eq!(outcome, reference, "request {index}"),
            other => panic!("request {index}: {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.frames_in, 100);
    assert_eq!(stats.frames_out, 100);
}

/// A client that writes a whole burst before reading anything: the
/// server's per-connection in-flight gate throttles its reader instead
/// of buffering replies unboundedly, and once the client starts reading,
/// every reply arrives. (The burst exceeds `MAX_CONN_INFLIGHT`, so the
/// gate provably engages.)
#[test]
fn read_free_bursts_are_throttled_not_buffered() {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::new(1)).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let request = Request::Mode((0..4).map(|i| vec![i as u64]).collect());
    let reference = request
        .serve_on(&mut CliqueService::new(4).unwrap())
        .unwrap();
    const BURST: u64 = 100;
    assert!(BURST as usize > congested_clique::net::MAX_CONN_INFLIGHT);
    for id in 0..BURST {
        frame::write_frame(&mut stream, &codec::encode_request(id, &request)).unwrap();
    }
    let mut seen = vec![false; BURST as usize];
    for _ in 0..BURST {
        let payload = frame::read_frame(&mut stream, 1 << 20)
            .unwrap()
            .expect("reply before EOF");
        match codec::decode_frame(&payload).unwrap() {
            Frame::Reply { id, result } => {
                assert_eq!(result.unwrap(), reference, "request {id}");
                assert!(!seen[id as usize], "duplicate reply {id}");
                seen[id as usize] = true;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.frames_in, BURST);
    assert_eq!(stats.frames_out, BURST);
}

/// Late clients: connecting or calling after shutdown fails cleanly
/// rather than hanging, and the in-process handle agrees.
#[test]
fn post_shutdown_calls_fail_cleanly() {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::new(1)).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let keys: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
    let mut client = CcClient::connect(addr).expect("connect");
    assert!(client.call(&Request::Mode(keys.clone())).is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.frames_in, 1);
    // The existing connection is closed: the next call cannot complete.
    match client.call(&Request::Mode(keys.clone())) {
        Ok(outcome) => panic!("call after shutdown succeeded: {outcome:?}"),
        Err(NetError::Disconnected | NetError::Io(_)) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
    }
    // The in-process handle fails the same way the fleet always has.
    assert_eq!(
        handle.call(Request::Mode(keys)).unwrap_err(),
        ServerError::ShutDown
    );
}

//! Poll-vs-epoll parity matrix: both reactor backends must be
//! observationally identical — bit-identical reply bytes and identical
//! `NetStats` counters — across the scenarios that stress every corner
//! of the connection state machines: pipelined mixed workloads,
//! PROTO_ERR teardown, graceful shutdown drain, read-pausing
//! backpressure and slow-loris eviction. The poll backend is the oracle
//! (it re-derives interest from scratch every iteration); edge-triggered
//! epoll must not be distinguishable from it on the wire.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cc_net::{codec, frame, CcClient, NetServer, NetServerConfig, ReactorBackend, WireResult};
use cc_server::{Request, ServerConfig};

/// Both backends, in oracle-first order. On non-Linux targets `Epoll`
/// resolves to `Poll` and the matrix degenerates to a self-comparison,
/// which is vacuous but harmless.
const BACKENDS: [ReactorBackend; 2] = [ReactorBackend::Poll, ReactorBackend::Epoll];

/// The observable `NetStats` projection compared across backends.
#[derive(Debug, PartialEq, Eq)]
struct StatsKey {
    connections: u64,
    frames_in: u64,
    frames_out: u64,
    protocol_errors: u64,
    idle_teardowns: u64,
    fleet_requests: u64,
}

fn stats_key(stats: &cc_net::NetStats) -> StatsKey {
    StatsKey {
        connections: stats.connections,
        frames_in: stats.frames_in,
        frames_out: stats.frames_out,
        protocol_errors: stats.protocol_errors,
        idle_teardowns: stats.idle_teardowns,
        fleet_requests: stats.fleet.requests(),
    }
}

fn mixed_requests(count: usize) -> Vec<Request> {
    let sizes = [8usize, 9, 16];
    (0..count)
        .map(|i| {
            let n = sizes[i % sizes.len()];
            match i % 3 {
                0 => Request::Mode(
                    (0..n)
                        .map(|v| vec![(v as u64 * 3 + i as u64) % 7])
                        .collect(),
                ),
                1 => Request::Sort((0..n).map(|v| vec![(n - v) as u64 + i as u64]).collect()),
                _ => Request::GlobalIndices(
                    (0..n).map(|v| vec![(v as u64 + i as u64) % 5]).collect(),
                ),
            }
        })
        .collect()
}

/// Runs `scenario` against a fresh server per backend and asserts both
/// the scenario's observable output and the final stats match the
/// oracle's.
fn assert_parity<T, F>(label: &str, config: impl Fn() -> NetServerConfig, scenario: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&NetServer) -> T,
{
    let mut oracle: Option<(T, StatsKey)> = None;
    for backend in BACKENDS {
        let server =
            NetServer::bind("127.0.0.1:0", config().with_reactor_backend(backend)).expect("bind");
        let observed = scenario(&server);
        let stats = stats_key(&server.shutdown());
        match &oracle {
            None => oracle = Some((observed, stats)),
            Some((want_obs, want_stats)) => {
                assert_eq!(
                    &observed, want_obs,
                    "{label}: replies diverged across backends"
                );
                assert_eq!(
                    &stats, want_stats,
                    "{label}: stats diverged across backends"
                );
            }
        }
    }
}

/// Three clients pipelining mixed requests: replies must be
/// bit-identical across backends (and to each other's ordering
/// guarantees — `pipeline` restores submission order).
#[test]
fn pipelined_mixed_workload_is_backend_identical() {
    let requests = mixed_requests(24);
    assert_parity(
        "pipelined",
        || NetServerConfig::new(2),
        |server| {
            let mut all: Vec<Vec<WireResult>> = Vec::new();
            for chunk in requests.chunks(8) {
                let mut client = CcClient::connect(server.local_addr()).expect("connect");
                all.push(client.pipeline(chunk).expect("pipeline"));
            }
            all
        },
    );
}

/// Multi-reactor serving must be observationally identical to a single
/// loop: same replies, same counters, regardless of which reactor each
/// connection landed on.
#[test]
fn multi_reactor_is_single_reactor_identical() {
    let requests = mixed_requests(16);
    let mut oracle: Option<(Vec<Vec<WireResult>>, StatsKey)> = None;
    for threads in [1usize, 2, 4] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetServerConfig::new(2).with_reactor_threads(threads),
        )
        .expect("bind");
        let mut all: Vec<Vec<WireResult>> = Vec::new();
        for chunk in requests.chunks(4) {
            let mut client = CcClient::connect(server.local_addr()).expect("connect");
            all.push(client.pipeline(chunk).expect("pipeline"));
        }
        let stats = server.shutdown();
        assert_eq!(stats.reactors, threads);
        let key = stats_key(&stats);
        match &oracle {
            None => oracle = Some((all, key)),
            Some((want_obs, want_stats)) => {
                assert_eq!(&all, want_obs, "{threads} reactors: replies diverged");
                assert_eq!(&key, want_stats, "{threads} reactors: stats diverged");
            }
        }
    }
}

/// Undecodable input: the PROTO_ERR notice bytes and the teardown
/// accounting must match across backends.
#[test]
fn protocol_error_teardown_is_backend_identical() {
    assert_parity(
        "proto_err",
        || NetServerConfig::new(1),
        |server| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            // A framed payload that cannot decode: bogus version byte.
            let garbage = frame::frame_vec(&[0xde, 0xad, 0xbe, 0xef]);
            stream.write_all(&garbage).expect("write garbage");
            stream.flush().expect("flush");
            let notice = frame::read_frame(&mut stream, u64::MAX)
                .expect("read notice")
                .expect("notice owed");
            // After the notice the server closes: EOF, not more frames.
            let eof = frame::read_frame(&mut stream, u64::MAX).expect("clean close");
            assert!(eof.is_none(), "connection must close after PROTO_ERR");
            notice
        },
    );
}

/// Graceful shutdown with requests in flight: every owed reply drains
/// before the socket closes, identically on both backends. The scenario
/// returns the replies read *after* shutdown began.
#[test]
fn shutdown_drain_is_backend_identical() {
    let requests = mixed_requests(8);
    let mut oracle: Option<(Vec<(u64, WireResult)>, StatsKey)> = None;
    for backend in BACKENDS {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetServerConfig::new(2).with_reactor_backend(backend),
        )
        .expect("bind");
        let mut client = CcClient::connect(server.local_addr()).expect("connect");
        for request in &requests {
            client.submit(request).expect("submit");
        }
        // Every request read and submitted into the fleet before the
        // drain begins — otherwise how many survive the half-close would
        // race and the counters could not be compared.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().frames_in < requests.len() as u64 {
            assert!(Instant::now() < deadline, "requests never all arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        let shutdown = std::thread::spawn(move || server.shutdown());
        let mut drained: Vec<(u64, WireResult)> = Vec::new();
        while client.pending() > 0 {
            drained.push(client.wait_next().expect("wait").expect("reply owed"));
        }
        drained.sort_by_key(|(id, _)| *id);
        let stats = stats_key(&shutdown.join().expect("shutdown"));
        match &oracle {
            None => oracle = Some((drained, stats)),
            Some((want_obs, want_stats)) => {
                assert_eq!(
                    &drained, want_obs,
                    "drained replies diverged across backends"
                );
                assert_eq!(&stats, want_stats, "drain stats diverged across backends");
            }
        }
    }
}

/// Read-pausing backpressure: a single-slot shard queue forces parking
/// and gate pauses; every pipelined request must still be answered, in
/// full, on both backends.
#[test]
fn backpressure_parking_is_backend_identical() {
    let requests = mixed_requests(32);
    assert_parity(
        "backpressure",
        || {
            NetServerConfig::new(1).with_fleet(
                ServerConfig::new(1)
                    .with_queue_capacity(1)
                    .with_coalesce_limit(1),
            )
        },
        |server| {
            let mut client = CcClient::connect(server.local_addr()).expect("connect");
            client
                .pipeline(&requests)
                .expect("pipeline through parking")
        },
    );
}

/// Slow-loris eviction: a partial frame that never completes trips the
/// idle clock on both backends, with identical accounting.
#[test]
fn slow_loris_eviction_is_backend_identical() {
    assert_parity(
        "slow_loris",
        || NetServerConfig::new(1).with_idle_timeout(Duration::from_millis(100)),
        |server| {
            let mut dribbler = TcpStream::connect(server.local_addr()).expect("connect");
            let bytes = frame::frame_vec(&codec::encode_request(
                0,
                &Request::Mode(vec![vec![1], vec![2]]),
            ));
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut cursor = 0usize;
            while server.stats().idle_teardowns == 0 {
                assert!(Instant::now() < deadline, "dribbler never torn down");
                if cursor + 1 < bytes.len() {
                    let _ = dribbler.write(&bytes[cursor..=cursor]);
                    let _ = dribbler.flush();
                    cursor += 1;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            server.stats().idle_teardowns
        },
    );
}

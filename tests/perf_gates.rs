//! Wall-clock regression gates. Each one is a ratio of two timed runs on
//! the same host, so it holds on any machine without pinning an absolute
//! number:
//!
//! * **Idle connections are nearly free under epoll.** 16 active
//!   connections drive a fixed query budget through one reactor thread,
//!   once alone and once with 240 idle bystanders. The crowded run must
//!   keep more than 0.6× the throughput of the lone one.
//! * **Lifecycle timestamps are within noise.** The same reactor traffic
//!   is served with cc-obs timing live and stripped (the `CC_OBS=off`
//!   path). The stripped run must not be 1.5× or more faster.
//!
//! Each side of a ratio is the median of [`SAMPLES`] timed runs after
//! [`WARMUP`] untimed ones, the two sides run alternately. The
//! thresholds are loose on purpose: they catch a structural regression
//! (an O(connections) scan per wake-up, a syscall per stamp), not a few
//! percent. Percent-level wall-clock questions belong to `ccbench/`.

use std::hint::black_box;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use congested_clique::workloads::RequestMix;
use congested_clique::{
    CcClient, NetServer, NetServerConfig, ReactorBackend, Request, ServerConfig,
};

/// Timed runs per side of a ratio.
const SAMPLES: usize = 5;
/// Untimed runs before the timed ones.
const WARMUP: usize = 1;

/// Mixed route-optimized / sort traffic, the shape both gates serve.
const ROUTE_AND_SORT: [u32; 7] = [0, 1, 1, 0, 0, 0, 0];

/// Run the gates one at a time: each times the other's absence, and the
/// timing switch one of them flips is process-global. The guarded value
/// is `()`, so a guard recovered from a panicked holder is still valid.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fleet(shards: usize) -> ServerConfig {
    ServerConfig::new(shards)
        .with_queue_capacity(32)
        .with_coalesce_limit(8)
}

/// The median wall times of `a` and `b`, run alternately: [`WARMUP`]
/// untimed rounds, then [`SAMPLES`] timed ones. Alternating keeps a slow
/// drift in host load from landing on one side of the ratio. Every run
/// must report the same comm-round total.
fn paired_medians(mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> (Duration, Duration) {
    let mut rounds = Vec::with_capacity(2 * (WARMUP + SAMPLES));
    let mut times = [Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES)];
    for i in 0..WARMUP + SAMPLES {
        let sides: [&mut dyn FnMut() -> u64; 2] = [&mut a, &mut b];
        for (side, run) in sides.into_iter().enumerate() {
            let started = Instant::now();
            rounds.push(black_box(run()));
            if i >= WARMUP {
                times[side].push(started.elapsed());
            }
        }
    }
    assert!(
        rounds.windows(2).all(|w| w[0] == w[1]),
        "rounds drifted across runs: {rounds:?}"
    );
    let [mut a_times, mut b_times] = times;
    a_times.sort_unstable();
    b_times.sort_unstable();
    (a_times[SAMPLES / 2], b_times[SAMPLES / 2])
}

/// Blocks until the server has accepted `want` connections.
fn wait_for_connections(server: &NetServer, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().connections < want {
        assert!(
            Instant::now() < deadline,
            "only {} of {want} connections accepted",
            server.stats().connections
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A server on one epoll reactor, 16 active clients, and `conns - 16`
/// idle sockets, all accepted before it is used.
struct ScalingRig {
    server: NetServer,
    clients: Vec<CcClient>,
    idle: Vec<TcpStream>,
}

impl ScalingRig {
    const ACTIVE: usize = 16;
    /// Idle sockets per connect batch, under the listener's accept
    /// backlog so no connect waits behind unaccepted neighbours.
    const CONNECT_BATCH: usize = 128;

    fn new(conns: usize) -> Self {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetServerConfig::new(2)
                .with_fleet(fleet(2))
                .with_reactor_backend(ReactorBackend::Epoll)
                .with_reactor_threads(1),
        )
        .unwrap();
        let addr = server.local_addr();
        let clients: Vec<CcClient> = (0..Self::ACTIVE)
            .map(|_| CcClient::connect(addr).unwrap())
            .collect();
        let mut idle = Vec::with_capacity(conns - Self::ACTIVE);
        while idle.len() < conns - Self::ACTIVE {
            let batch = Self::CONNECT_BATCH.min(conns - Self::ACTIVE - idle.len());
            for _ in 0..batch {
                idle.push(TcpStream::connect(addr).unwrap());
            }
            wait_for_connections(&server, (Self::ACTIVE + idle.len()) as u64);
        }
        ScalingRig {
            server,
            clients,
            idle,
        }
    }

    /// Serves `requests` on one thread: each batch is submitted
    /// round-robin, one request per client, then drained, so every active
    /// connection holds work in flight at once. Returns the total comm
    /// rounds.
    fn serve(&mut self, requests: &[Request]) -> u64 {
        let mut rounds = 0;
        for batch in requests.chunks(self.clients.len()) {
            for (client, request) in self.clients.iter_mut().zip(batch) {
                client.submit(request).unwrap();
            }
            for client in self.clients.iter_mut().take(batch.len()) {
                while client.pending() > 0 {
                    let (_, result) = client.wait_next().unwrap().unwrap();
                    rounds += result.unwrap().metrics().comm_rounds();
                }
            }
        }
        rounds
    }

    fn shutdown(self) {
        drop(self.idle);
        drop(self.clients);
        self.server.shutdown();
    }
}

#[test]
fn idle_connections_are_nearly_free_under_epoll() {
    let _serial = serial();
    let requests = RequestMix::new(vec![16])
        .with_weights(ROUTE_AND_SORT)
        .generate(256, 7);
    let mut alone = ScalingRig::new(16);
    let mut crowded = ScalingRig::new(256);
    let (alone_time, crowded_time) =
        paired_medians(|| alone.serve(&requests), || crowded.serve(&requests));
    alone.shutdown();
    crowded.shutdown();
    let ratio = alone_time.as_secs_f64() / crowded_time.as_secs_f64();
    println!(
        "epoll: 256 connections run at {ratio:.2}x of 16 ({crowded_time:?} vs {alone_time:?})"
    );
    assert!(
        ratio > 0.6,
        "256-connection epoll row degraded to {ratio:.2}x of its 16-connection \
         baseline — idle sockets are not free"
    );
}

/// Binds a 4-shard reactor server, with lifecycle timestamps live or
/// stripped, and serves `requests` from 4 client threads over one
/// connection each, thread `c` taking requests `c, c + 4, …`. Returns
/// the total comm rounds.
fn serve_timed(timing: bool, requests: &[Request]) -> u64 {
    const CLIENTS: usize = 4;
    congested_clique::obs::set_timing_enabled(timing);
    let server =
        NetServer::bind("127.0.0.1:0", NetServerConfig::new(4).with_fleet(fleet(4))).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = CcClient::connect(addr).unwrap();
                    requests[c..]
                        .iter()
                        .step_by(CLIENTS)
                        .map(|r| client.call(r).unwrap().metrics().comm_rounds())
                        .sum::<u64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn lifecycle_timestamps_cost_less_than_half_again() {
    let _serial = serial();
    let requests = RequestMix::new(vec![64])
        .with_weights(ROUTE_AND_SORT)
        .generate(16, 42);
    let (on, off) = paired_medians(
        || serve_timed(true, &requests),
        || serve_timed(false, &requests),
    );
    congested_clique::obs::set_timing_enabled(true);
    let ratio = on.as_secs_f64() / off.as_secs_f64();
    println!("obs: timing off runs {ratio:.2}x faster than timing on ({off:?} vs {on:?})");
    assert!(
        ratio < 1.5,
        "timing_off runs {ratio:.2}x faster than instrumented — the lifecycle \
         stamps are not within noise"
    );
}

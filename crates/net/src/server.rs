//! The TCP front of the query fleet: [`NetServer`], its configuration
//! and its wire telemetry. The serving itself — pipelining,
//! backpressure, PROTO_ERR teardown and graceful drain — is the
//! event-driven reactor core in `reactor.rs`.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cc_core::obs::{Counter, Gauge, Histogram, Registry};
use cc_server::{FleetStats, QueryServer, ReplyWaker, ServerConfig, ServiceHandle};

use crate::error::NetError;
use crate::frame::DEFAULT_MAX_FRAME_BYTES;
use crate::reactor::ReactorShared;

/// Which readiness mechanism the reactor core multiplexes on. Both
/// backends drive identical per-connection state machines and produce
/// identical wire behaviour; they differ only in how the kernel reports
/// readiness — and therefore in how serving cost scales with *idle*
/// connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReactorBackend {
    /// Edge-triggered `epoll`: every fd registered once, interest masks
    /// updated only when a connection's paused/write-pending state
    /// changes, readiness delivered as an O(ready) event list. Idle
    /// connections cost nothing per iteration. The default on Linux;
    /// resolves to [`ReactorBackend::Poll`] everywhere else.
    Epoll,
    /// `poll(2)`: the pollfd array is rebuilt and the kernel scans every
    /// registration on each wait — O(n) per iteration. Retained as the
    /// portable fallback, the correctness oracle the parity tests compare
    /// against, and the `CC_REACTOR=poll` kill switch.
    Poll,
}

impl ReactorBackend {
    /// The backend this host defaults to: epoll on Linux, poll elsewhere.
    #[must_use]
    pub fn default_for_host() -> Self {
        if cfg!(target_os = "linux") {
            ReactorBackend::Epoll
        } else {
            ReactorBackend::Poll
        }
    }

    /// Resolves an optional explicit choice to the backend a bind will
    /// actually run: the `CC_REACTOR` environment variable (`poll` or
    /// `epoll`) wins as an operational kill switch — mirroring
    /// `CC_RADIX=off` — then the explicit choice, then
    /// [`default_for_host`](ReactorBackend::default_for_host); and
    /// `Epoll` degrades to `Poll` on targets without it.
    #[must_use]
    pub fn resolve(explicit: Option<ReactorBackend>) -> ReactorBackend {
        let env = match std::env::var("CC_REACTOR").as_deref() {
            Ok("poll") => Some(ReactorBackend::Poll),
            Ok("epoll") => Some(ReactorBackend::Epoll),
            _ => None,
        };
        let chosen = env.or(explicit).unwrap_or_else(Self::default_for_host);
        if chosen == ReactorBackend::Epoll && !cfg!(target_os = "linux") {
            ReactorBackend::Poll
        } else {
            chosen
        }
    }
}

impl Default for ReactorBackend {
    fn default() -> Self {
        Self::default_for_host()
    }
}

/// Sizing knobs for a [`NetServer`]: the inner fleet's [`ServerConfig`]
/// plus the wire-level frame cap, the reactor topology and the slow-peer
/// stall bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetServerConfig {
    fleet: ServerConfig,
    max_frame_bytes: u64,
    write_timeout: Duration,
    idle_timeout: Duration,
    conn_send_buffer: Option<u32>,
    reactor_backend: Option<ReactorBackend>,
    reactor_threads: usize,
}

impl NetServerConfig {
    /// A config whose fleet has `shards` shard workers (defaults
    /// otherwise, including the [`DEFAULT_MAX_FRAME_BYTES`] frame cap).
    pub fn new(shards: usize) -> Self {
        NetServerConfig {
            fleet: ServerConfig::new(shards),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            write_timeout: DEFAULT_WRITE_TIMEOUT,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            conn_send_buffer: None,
            reactor_backend: None,
            reactor_threads: 1,
        }
    }

    /// Replaces the whole inner fleet configuration (queue capacity,
    /// coalescing, shard count).
    #[must_use]
    pub fn with_fleet(mut self, fleet: ServerConfig) -> Self {
        self.fleet = fleet;
        self
    }

    /// Sets the cap on one frame's payload size in bytes. Frames above it
    /// are rejected with
    /// [`WireError::FrameTooLarge`](crate::WireError::FrameTooLarge) — on
    /// the read side before allocation.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: u64) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// The inner fleet configuration.
    #[inline]
    pub fn fleet(&self) -> &ServerConfig {
        &self.fleet
    }

    /// The frame payload cap in bytes.
    #[inline]
    pub fn max_frame_bytes(&self) -> u64 {
        self.max_frame_bytes
    }

    /// Sets the bound on any single stalled reply write. A client that
    /// stops reading long enough for its TCP window *and* this timeout to
    /// fill is treated as gone: the reactor tears its connection down
    /// (counted in [`NetStats::idle_teardowns`]) rather than holding its
    /// queued replies — and with them [`NetServer::shutdown`] / `Drop` —
    /// forever. The clock runs while the write queue holds a frame and
    /// restarts at every completed frame flush.
    ///
    /// # Panics
    ///
    /// Panics on a zero duration (every queued reply would count as
    /// stalled).
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "write timeout must be non-zero");
        self.write_timeout = timeout;
        self
    }

    /// The bound on any single stalled reply write.
    #[inline]
    pub fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    /// Sets the slow-loris bound: how long a *partial* frame may sit
    /// without completing before the reactor tears the connection down
    /// (counted in [`NetStats::idle_teardowns`]). Dribbled bytes do not
    /// refresh the clock — only a completed frame does — so a
    /// byte-at-a-time client is evicted however steadily it drips.
    ///
    /// # Panics
    ///
    /// Panics on a zero duration, like
    /// [`with_write_timeout`](NetServerConfig::with_write_timeout).
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "idle timeout must be non-zero");
        self.idle_timeout = timeout;
        self
    }

    /// The slow-loris bound on a stalled partial frame.
    #[inline]
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Caps each accepted connection's kernel send buffer (`SO_SNDBUF`)
    /// at roughly `bytes`. Unset, the kernel autotunes the buffer up to
    /// `tcp_wmem[2]` (megabytes per socket), which both unbounds kernel
    /// memory under many slow readers and lets a reader that never
    /// drains absorb replies for a long time before the stalled-write
    /// deadline can notice. The kernel rounds the value (Linux doubles
    /// it) and clamps to its own floor.
    ///
    /// # Panics
    ///
    /// Panics on zero (the cap would round to the OS floor anyway —
    /// pass the floor explicitly if that is what you want).
    #[must_use]
    pub fn with_conn_send_buffer(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "send buffer cap must be non-zero");
        self.conn_send_buffer = Some(bytes);
        self
    }

    /// The per-connection kernel send buffer cap, if one is set.
    #[inline]
    pub fn conn_send_buffer(&self) -> Option<u32> {
        self.conn_send_buffer
    }

    /// Pins the reactor's readiness backend instead of letting the host
    /// default decide; see [`ReactorBackend`]. The `CC_REACTOR`
    /// environment variable still overrides an explicit choice — it is
    /// the operational kill switch, like `CC_RADIX=off` for the sort
    /// engine.
    #[must_use]
    pub fn with_reactor_backend(mut self, backend: ReactorBackend) -> Self {
        self.reactor_backend = Some(backend);
        self
    }

    /// The explicitly pinned readiness backend, if any. What a bind will
    /// actually run is [`NetServerConfig::resolved_reactor_backend`].
    #[inline]
    pub fn reactor_backend(&self) -> Option<ReactorBackend> {
        self.reactor_backend
    }

    /// The backend a bind with this config will actually run, after the
    /// `CC_REACTOR` override and the host fallback are applied.
    #[must_use]
    pub fn resolved_reactor_backend(&self) -> ReactorBackend {
        ReactorBackend::resolve(self.reactor_backend)
    }

    /// Sets the number of reactor event-loop threads. At one (the
    /// default) a single loop owns the listener and every connection. At
    /// N, reactor 0 still owns the listener and deals each accepted
    /// socket to the least-loaded reactor; every reactor owns its own fd
    /// set, readiness backend and doorbell, and fleet fan-in is unchanged
    /// (`submit_tagged` from whichever loop read the request).
    ///
    /// # Panics
    ///
    /// Panics on zero — someone has to own the listener.
    #[must_use]
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "reactor thread count must be non-zero");
        self.reactor_threads = threads;
        self
    }

    /// The configured number of reactor event-loop threads.
    #[inline]
    pub fn reactor_threads(&self) -> usize {
        self.reactor_threads
    }
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig::new(1).with_fleet(ServerConfig::default())
    }
}

/// Wire-level counters plus the fleet's own telemetry.
#[derive(Clone, Debug)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request frames successfully decoded and submitted (or answered
    /// inline with a server-level error).
    pub frames_in: u64,
    /// Frames written back: replies plus protocol-error notices.
    pub frames_out: u64,
    /// Connections torn down for undecodable input.
    pub protocol_errors: u64,
    /// Connections the reactor evicted on a deadline: a partial frame
    /// that stopped completing (slow loris) or replies the peer stopped
    /// reading.
    pub idle_teardowns: u64,
    /// Reactor event-loop threads serving connections.
    pub reactors: usize,
    /// The inner [`QueryServer`]'s per-shard telemetry.
    pub fleet: FleetStats,
}

/// The wire-level metrics, shared by every reactor thread — one
/// instance per [`NetServer`], read by [`NetServer::stats`]. Normally
/// built with [`Telemetry::new`] over the fleet's [`Registry`] so one
/// `Request::Stats` snapshot covers the whole serving stack; the
/// `Default` form (standalone, unregistered cells) remains for unit
/// tests that drive connection state machines directly.
#[derive(Default)]
pub(crate) struct Telemetry {
    pub(crate) connections: Counter,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) idle_teardowns: Counter,
    /// Time from a complete request frame's arrival to its decoded
    /// [`cc_server::Request`] — data requests only, so the count moves in
    /// lockstep with the fleet's per-shard `requests` counters.
    pub(crate) decode_ns: Histogram,
    /// Time a data reply spends between entering the write path and its
    /// last byte handed to the kernel. Stats replies and error notices
    /// are excluded so the count stays in lockstep with served requests.
    pub(crate) write_ns: Histogram,
    /// Reactor loop: returns from the blocking readiness wait.
    pub(crate) reactor_wakeups: Counter,
    /// Ready events delivered per wakeup.
    pub(crate) reactor_ready_set: Histogram,
    /// Time servicing one loop iteration between two readiness waits.
    pub(crate) reactor_loop_ns: Histogram,
    /// Readiness waits issued through the epoll backend.
    pub(crate) reactor_polls_epoll: Counter,
    /// Readiness waits issued through the `poll(2)` backend.
    pub(crate) reactor_polls_poll: Counter,
    /// Sockets adopted off the accept-handoff (inject) channel.
    pub(crate) reactor_injected: Counter,
    /// Handed-off sockets not yet adopted by their target reactor.
    pub(crate) reactor_inject_depth: Gauge,
}

impl Telemetry {
    /// Registry-backed construction: every cell is shared with `registry`
    /// under its `net.*` name, so wire metrics land in the same snapshot
    /// as the fleet's `fleet.*` ones.
    pub(crate) fn new(registry: &Registry) -> Telemetry {
        Telemetry {
            connections: registry.counter("net.connections"),
            frames_in: registry.counter("net.frames_in"),
            frames_out: registry.counter("net.frames_out"),
            protocol_errors: registry.counter("net.protocol_errors"),
            idle_teardowns: registry.counter("net.idle_teardowns"),
            decode_ns: registry.histogram("net.decode_ns"),
            write_ns: registry.histogram("net.write_ns"),
            reactor_wakeups: registry.counter("net.reactor.wakeups"),
            reactor_ready_set: registry.histogram("net.reactor.ready_set"),
            reactor_loop_ns: registry.histogram("net.reactor.loop_ns"),
            reactor_polls_epoll: registry.counter("net.reactor.polls.epoll"),
            reactor_polls_poll: registry.counter("net.reactor.polls.poll"),
            reactor_injected: registry.counter("net.reactor.injected"),
            reactor_inject_depth: registry.gauge("net.reactor.inject_depth"),
        }
    }

    /// One consistent read of the wire counters, completed with the given
    /// fleet snapshot — the single construction point of [`NetStats`].
    fn snapshot(&self, fleet: FleetStats, reactors: usize) -> NetStats {
        NetStats {
            connections: self.connections.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            protocol_errors: self.protocol_errors.get(),
            idle_teardowns: self.idle_teardowns.get(),
            reactors,
            fleet,
        }
    }
}

/// Default bound on one stalled reply write: long enough for any live
/// client to drain its receive window, short enough that a vanished peer
/// cannot hold [`NetServer::shutdown`] / `Drop`, which wait for every
/// queued reply, indefinitely. No completed-frame flush for this long
/// tears the connection down.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default slow-loris bound: how long the reactor lets a partial frame
/// sit without completing before evicting the connection.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Cap on unanswered-or-unwritten requests per connection. This is the
/// reply-side half of the backpressure contract: completed replies wait
/// in the connection's write queue only until they flush, so a client
/// that pipelines without reading would otherwise make the server buffer
/// unboundedly. At the cap, the reactor stops reading the connection
/// (TCP pushes back on the client) until its replies flush. Above
/// the client library's `PIPELINE_WINDOW`, so well-behaved clients never
/// hit it.
pub const MAX_CONN_INFLIGHT: usize = 64;

/// A TCP server exposing a [`QueryServer`] fleet over the `cc-net` wire
/// protocol. See the [crate docs](crate) for the protocol and the
/// architecture.
///
/// Every accepted connection is multiplexed on an event-driven reactor
/// thread: frames → requests → [`ServiceHandle`] tagged fan-in → reply
/// write queues, with backpressure surfacing as read-pausing. One
/// connection can pipeline any number of requests and receives replies
/// in completion order, tagged with its request ids; a full shard queue
/// pauses that connection's reads, which TCP propagates to the client.
pub struct NetServer {
    local_addr: SocketAddr,
    /// Shared with the reactor threads (wire telemetry included);
    /// `closed` plus a ring on every doorbell in `wakers` gets their
    /// attention, and joining `threads` completes the drain.
    shared: Arc<ReactorShared>,
    wakers: Vec<ReplyWaker>,
    threads: Vec<JoinHandle<()>>,
    fleet: Option<QueryServer>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("reactors", &self.wakers.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Spawns the fleet, binds `addr` (use port 0 for an ephemeral port)
    /// and starts the reactor threads.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] for an invalid fleet config, [`NetError::Io`]
    /// for bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: NetServerConfig) -> Result<Self, NetError> {
        let fleet = QueryServer::new(config.fleet.clone()).map_err(NetError::Server)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // The wire layer records into the fleet's own registry, so one
        // stats snapshot spans sockets, queues and sessions.
        let registry = fleet.registry().clone();
        let shared = Arc::new(ReactorShared {
            closed: AtomicBool::new(false),
            telemetry: Telemetry::new(&registry),
            registry,
            max_frame_bytes: config.max_frame_bytes,
            write_timeout: config.write_timeout,
            idle_timeout: config.idle_timeout,
            conn_send_buffer: config.conn_send_buffer,
        });
        let (threads, wakers) = crate::reactor::spawn(
            listener,
            fleet.handle(),
            Arc::clone(&shared),
            config.resolved_reactor_backend(),
            config.reactor_threads,
        )?;
        Ok(NetServer {
            local_addr,
            shared,
            wakers,
            threads,
            fleet: Some(fleet),
        })
    }

    /// The bound address — the port to hand to clients when binding
    /// ephemeral (`127.0.0.1:0`).
    #[inline]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// An in-process handle onto the same fleet the TCP connections feed —
    /// local callers skip the codec entirely and still share sessions,
    /// queues and telemetry with remote ones.
    pub fn handle(&self) -> ServiceHandle {
        self.fleet
            .as_ref()
            .expect("fleet lives until drop")
            .handle()
    }

    /// A live snapshot of the wire and fleet telemetry. Counters move
    /// while the server runs; for quiescent totals use the snapshot
    /// returned by [`NetServer::shutdown`].
    pub fn stats(&self) -> NetStats {
        self.shared.telemetry.snapshot(
            self.fleet.as_ref().expect("fleet lives until drop").stats(),
            self.wakers.len(),
        )
    }

    /// Graceful shutdown. In order: stop accepting; half-close every
    /// connection's read side (no new requests); let the fleet answer
    /// everything already submitted; flush every queued reply and close
    /// each socket; then drain and join the fleet itself. Clients with
    /// requests in flight get all their replies before their connection
    /// closes.
    pub fn shutdown(mut self) -> NetStats {
        self.shutdown_impl();
        self.shared.telemetry.snapshot(
            self.fleet
                .take()
                .expect("first shutdown consumes the fleet")
                .shutdown(),
            self.wakers.len(),
        )
    }

    fn shutdown_impl(&mut self) {
        if self.shared.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Ringing every doorbell gets each loop off its wait; the
        // reactors then half-close every connection, answer everything
        // already submitted, flush and exit — the write/idle deadlines
        // bound the drain against stalled peers, so these joins cannot
        // park forever.
        for waker in &self.wakers {
            waker();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Operator-facing exit report, gated behind `CC_OBS_DUMP` so test
        // and CI output stays quiet. Runs once: a second shutdown (or the
        // Drop after an explicit one) early-returns above.
        if matches!(std::env::var("CC_OBS_DUMP").as_deref(), Ok(v) if !v.is_empty() && v != "0") {
            if let Some(fleet) = &self.fleet {
                eprintln!("{}", fleet.registry().snapshot());
            }
        }
    }
}

impl Drop for NetServer {
    /// Dropping performs the same graceful drain as
    /// [`NetServer::shutdown`], minus the returned stats.
    fn drop(&mut self) {
        self.shutdown_impl();
        // `fleet` (if not consumed by an explicit shutdown) drains in its
        // own Drop.
    }
}

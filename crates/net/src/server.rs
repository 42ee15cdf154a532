//! The TCP front of the query fleet: the event-driven reactor backend
//! (default) and the legacy thread-per-connection backend, behind one
//! [`NetServer`] with identical wire semantics — pipelining,
//! backpressure, PROTO_ERR teardown and graceful drain.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cc_core::obs::{self, Counter, Gauge, Histogram, Registry};
use cc_server::{FleetStats, QueryServer, ServerConfig, ServerError, ServiceHandle, TaggedReply};

use crate::codec::{self, Frame};
use crate::error::{NetError, WireError};
use crate::frame::{self, DEFAULT_MAX_FRAME_BYTES};

/// Which serving core a [`NetServer`] runs. Both speak the same wire
/// protocol with the same semantics; they differ only in how sockets map
/// to threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServingMode {
    /// One event-driven reactor thread multiplexes every connection via
    /// `poll(2)` readiness — thread count stays O(shards) however many
    /// clients connect. The default, and the C10k path. On non-unix
    /// targets (no `poll`) this transparently falls back to
    /// [`ServingMode::ThreadPerConnection`].
    #[default]
    Reactor,
    /// The legacy core: one reader and one writer thread per accepted
    /// connection. The fallback on targets without the reactor
    /// (non-Unix), and the second core the wire-protocol tests run
    /// against.
    ThreadPerConnection,
}

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
/// plus the wire-level frame cap, the serving mode, the reactor topology
/// and the slow-peer stall bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetServerConfig {
    fleet: ServerConfig,
    max_frame_bytes: u64,
    write_timeout: Duration,
    idle_timeout: Duration,
    serving_mode: ServingMode,
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
            serving_mode: ServingMode::default(),
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
    /// are rejected with [`WireError::FrameTooLarge`] — on the read side
    /// before allocation.
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

    /// Sets the bound on any single blocked reply write. A client that
    /// stops reading long enough for its TCP window *and* this timeout to
    /// fill is treated as gone: its connection is torn down rather than
    /// parking a writer thread — and with it [`NetServer::shutdown`] /
    /// `Drop` — forever. Armed at accept time, because a socket timeout
    /// installed after a write has already parked does not wake it.
    ///
    /// # Panics
    ///
    /// Panics on a zero duration (the OS rejects it as a socket timeout).
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "write timeout must be non-zero");
        self.write_timeout = timeout;
        self
    }

    /// The bound on any single blocked reply write.
    #[inline]
    pub fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    /// Sets the slow-loris bound: how long a *partial* frame may sit
    /// without completing before the reactor tears the connection down
    /// (counted in [`NetStats::idle_teardowns`]). Dribbled bytes do not
    /// refresh the clock — only a completed frame does — so a
    /// byte-at-a-time client is evicted however steadily it drips.
    /// Reactor-only; the thread-per-connection backend relies on the
    /// write timeout alone.
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

    /// Selects the serving core; see [`ServingMode`].
    #[must_use]
    pub fn with_serving_mode(mut self, mode: ServingMode) -> Self {
        self.serving_mode = mode;
        self
    }

    /// The selected serving core.
    #[inline]
    pub fn serving_mode(&self) -> ServingMode {
        self.serving_mode
    }

    /// Caps each accepted connection's kernel send buffer (`SO_SNDBUF`)
    /// at roughly `bytes`. Unset, the kernel autotunes the buffer up to
    /// `tcp_wmem[2]` (megabytes per socket), which both unbounds kernel
    /// memory under many slow readers and lets a reader that never
    /// drains absorb replies for a long time before the stalled-write
    /// deadline can notice. The kernel rounds the value (Linux doubles
    /// it) and clamps to its own floor. Unix-only; ignored elsewhere.
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
    /// engine. Ignored under [`ServingMode::ThreadPerConnection`].
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
    /// (`submit_tagged` from whichever loop read the request). Ignored
    /// under [`ServingMode::ThreadPerConnection`].
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
        NetServerConfig {
            fleet: ServerConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            write_timeout: DEFAULT_WRITE_TIMEOUT,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            serving_mode: ServingMode::default(),
            conn_send_buffer: None,
            reactor_backend: None,
            reactor_threads: 1,
        }
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
    /// reading. Always zero under
    /// [`ServingMode::ThreadPerConnection`], whose write timeout kills
    /// silently at the socket layer.
    pub idle_teardowns: u64,
    /// Reactor event-loop threads serving connections; zero under
    /// [`ServingMode::ThreadPerConnection`].
    pub reactors: usize,
    /// The inner [`QueryServer`]'s per-shard telemetry.
    pub fleet: FleetStats,
}

/// The wire-level metrics, shared by whichever backend serves — one
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

/// Default bound on one blocked reply write: long enough for any live
/// client to drain its receive window, short enough that a vanished peer
/// cannot park a writer thread — or [`NetServer::shutdown`] / `Drop`,
/// which join it — indefinitely. The reactor applies the same bound per
/// queued frame: no completed-frame flush for this long tears the
/// connection down.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default slow-loris bound: how long the reactor lets a partial frame
/// sit without completing before evicting the connection.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Cap on unanswered-or-unwritten requests per connection. This is the
/// reply-side half of the backpressure contract: completed replies wait
/// on the connection's channel only until the writer ships them, so a
/// client that pipelines without reading would otherwise make the server
/// buffer unboundedly. At the cap, the connection's reader stops reading
/// (TCP pushes back on the client) until the writer catches up. Above
/// the client library's `PIPELINE_WINDOW`, so well-behaved clients never
/// hit it.
pub const MAX_CONN_INFLIGHT: usize = 64;

/// Counts one connection's requests between fleet submission and reply
/// write-out, blocking the reader at [`MAX_CONN_INFLIGHT`].
#[derive(Default)]
struct InflightGate {
    count: Mutex<usize>,
    cv: Condvar,
}

impl InflightGate {
    /// Blocks until a slot is free, then takes it.
    fn acquire(&self) {
        let mut count = self.count.lock().expect("gate lock");
        while *count >= MAX_CONN_INFLIGHT {
            count = self.cv.wait(count).expect("gate lock");
        }
        *count += 1;
    }

    /// Returns a slot (reply written, dropped, or answered inline).
    fn release(&self) {
        let mut count = self.count.lock().expect("gate lock");
        *count -= 1;
        drop(count);
        self.cv.notify_one();
    }
}

struct Shared {
    closed: AtomicBool,
    max_frame_bytes: u64,
    write_timeout: Duration,
    #[cfg_attr(not(unix), allow(dead_code))]
    conn_send_buffer: Option<u32>,
    telemetry: Arc<Telemetry>,
    /// The fleet's metric registry — the source for inline
    /// `Frame::StatsRequest` answers.
    registry: Registry,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, ConnEntry>>,
}

impl Shared {
    /// Called by a connection's writer as its last act: drop the
    /// connection's registry entry — and with it the registry fd — so a
    /// long-lived server under churn does not accumulate dead sockets.
    /// If the accept loop has not attached the thread handles yet (a
    /// connection that lived and died faster than registration), leave a
    /// tombstone for it to collect instead.
    fn reap(&self, id: u64) {
        let mut conns = self.conns.lock().expect("conns lock");
        if let Some(entry) = conns.get_mut(&id) {
            if entry.writer.is_some() {
                conns.remove(&id);
            } else {
                entry.done = true;
            }
        }
    }
}

/// One live connection: the registry clone used to force the reader off
/// its blocking read, plus the two thread handles (attached by the
/// accept loop just after spawning; `done` marks a connection whose
/// writer finished before that attachment). Finished connections remove
/// their own entry — dropping the in-thread `JoinHandle`s detaches the
/// already-exiting threads — so the registry holds only live sockets.
struct ConnEntry {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    done: bool,
}

/// Writes one frame under the sink lock (writer thread and the reader's
/// fatal-notice path share the socket; the lock keeps frames atomic).
fn write_locked(sink: &Mutex<TcpStream>, payload: &[u8]) -> Result<(), NetError> {
    let mut stream = sink.lock().expect("sink lock");
    frame::write_frame(&mut *stream, payload)
}

/// The per-connection reader: slices frames off the socket, decodes, and
/// submits into the fleet under the connection's id tags. Exits on client
/// disconnect, server shutdown (the registry half-closes the socket) or
/// the first undecodable frame. Dropping `replies` on exit is what lets
/// the writer drain every still-owed reply and then close.
fn run_reader(
    mut stream: TcpStream,
    handle: ServiceHandle,
    replies: Sender<TaggedReply>,
    gate: Arc<InflightGate>,
    sink: Arc<Mutex<TcpStream>>,
    shared: Arc<Shared>,
) {
    loop {
        // Best-effort id for protocol-error notices: the offending
        // frame's request id when the decoder got far enough, else 0.
        let mut notice_id = 0;
        let fatal = match frame::read_frame(&mut stream, shared.max_frame_bytes) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                let decode_started = obs::now();
                match codec::decode_frame(&payload) {
                    Ok(Frame::Request { id, request }) => {
                        shared.telemetry.decode_ns.record_elapsed(decode_started);
                        shared.telemetry.frames_in.incr();
                        // Backpressure, both directions: the gate blocks while
                        // too many of this connection's replies are completed
                        // but unwritten (a client pipelining without reading),
                        // and submit_tagged blocks while the target shard's
                        // bounded queue is full. Either way this loop stops
                        // reading and TCP flow control pushes back on the
                        // client. Server-level rejections (only ShutDown here;
                        // the tagged path never uses try_submit) are answered
                        // inline so a pipelining client is never left waiting.
                        gate.acquire();
                        match handle.submit_tagged(id, request, &replies) {
                            Ok(()) => continue,
                            Err(e) => {
                                // No reply will reach the writer's channel.
                                gate.release();
                                let notice = codec::encode_reply(id, &Err(e));
                                if write_locked(&sink, &notice).is_err() {
                                    break;
                                }
                                shared.telemetry.frames_out.incr();
                                continue;
                            }
                        }
                    }
                    Ok(Frame::StatsRequest { id }) => {
                        // Answered inline from the registry — a stats probe
                        // never competes with data requests for shard queue
                        // slots or gate capacity, and its reply is excluded
                        // from `net.write_ns` so that histogram's count
                        // keeps tracking served data requests.
                        //
                        // The snapshot is taken *under the sink lock*: any
                        // data reply the client has already seen was written
                        // under this lock and its bookkeeping completed
                        // before the lock released, so the snapshot counts
                        // every reply that prompted this probe.
                        shared.telemetry.frames_in.incr();
                        let mut stream = sink.lock().expect("sink lock");
                        let payload = codec::encode_stats_reply(id, &shared.registry.snapshot());
                        if frame::write_frame(&mut *stream, &payload).is_err() {
                            break;
                        }
                        drop(stream);
                        shared.telemetry.frames_out.incr();
                        continue;
                    }
                    Ok(
                        Frame::Reply { id, .. }
                        | Frame::ProtocolError { id, .. }
                        | Frame::StatsReply { id, .. },
                    ) => {
                        notice_id = id;
                        WireError::malformed("clients may send only request frames")
                    }
                    Err(e) => {
                        // The header (and its request id) may have parsed even
                        // though the body did not; name the request if so.
                        notice_id = codec::peek_request_id(&payload).unwrap_or(0);
                        e
                    }
                }
            }
            // An oversized length prefix is a protocol error worth
            // reporting; transport failures and disconnects are not.
            Err(NetError::Wire(e)) => e,
            Err(_) => break,
        };
        // Undecodable input: report which way it failed, then drop the
        // connection — after a framing error there is no resync point.
        shared.telemetry.protocol_errors.incr();
        if write_locked(&sink, &codec::encode_protocol_error(notice_id, &fatal)).is_ok() {
            shared.telemetry.frames_out.incr();
        }
        break;
    }
    let _ = stream.shutdown(Shutdown::Read);
}

/// The per-connection writer: drains the tagged reply channel — fed by
/// every shard this connection's requests landed on, in completion order —
/// and writes each reply frame. The channel closes only when the reader
/// has exited *and* every in-flight request has been answered, so by
/// construction every queued reply is written before the socket closes.
/// The writer is the connection's last thread to finish, so it also reaps
/// the registry entry.
fn run_writer(
    conn_id: u64,
    replies: Receiver<TaggedReply>,
    gate: Arc<InflightGate>,
    sink: Arc<Mutex<TcpStream>>,
    shared: Arc<Shared>,
) {
    // After a write failure the client is gone and remaining replies have
    // no destination — but the channel must still be drained, releasing
    // the gate each time, or a reader parked at the in-flight cap would
    // never wake to observe the dead socket.
    let mut client_gone = false;
    while let Ok(reply) = replies.recv() {
        if !client_gone {
            let payload = codec::encode_reply(reply.id, &reply.result.map_err(ServerError::Query));
            let write_started = obs::now();
            let mut stream = sink.lock().expect("sink lock");
            if frame::write_frame(&mut *stream, &payload).is_ok() {
                // Recorded while still holding the sink lock: a stats
                // probe prompted by this very reply snapshots under the
                // same lock, so the sample is visible before the snapshot
                // can be taken.
                shared.telemetry.write_ns.record_elapsed(write_started);
                shared.telemetry.frames_out.incr();
            } else {
                client_gone = true;
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        gate.release();
    }
    let _ = sink.lock().expect("sink lock").shutdown(Shutdown::Both);
    shared.reap(conn_id);
}

/// The accept loop polls a nonblocking listener: a blocking `accept`
/// would need an out-of-band wake-up at shutdown (fragile for wildcard
/// or interface binds), while a poll observes the `closed` flag within
/// one 5 ms sleep interval on any bind, so `shutdown`/`Drop` joins this
/// thread deterministically and connection-setup latency stays small.
fn accept_loop(listener: TcpListener, handle: ServiceHandle, shared: Arc<Shared>) {
    loop {
        if shared.closed.load(Ordering::Acquire) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => {
                // Persistent accept errors (fd exhaustion, EMFILE) must
                // not busy-spin a core; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // The listener is nonblocking; the per-connection socket must not
        // be (inheritance of the flag is platform-dependent).
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        let (registry, sink_stream) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(a), Ok(b)) => (a, b),
            // Out of fds: drop the socket; the client sees a reset, and
            // the connection is never counted as serviced.
            _ => continue,
        };
        // One frame per reply either way (write_frame coalesces prefix +
        // payload), so turn Nagle off like the client does; and arm the
        // write bound now — a socket timeout installed later, after a
        // send has parked on a stalled peer, would not wake it.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(shared.write_timeout));
        #[cfg(unix)]
        crate::reactor::cap_send_buffer(&stream, shared.conn_send_buffer);
        shared.telemetry.connections.incr();
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.conns.lock().expect("conns lock").insert(
            conn_id,
            ConnEntry {
                stream: registry,
                reader: None,
                writer: None,
                done: false,
            },
        );
        let sink = Arc::new(Mutex::new(sink_stream));
        let gate = Arc::new(InflightGate::default());
        let (reply_tx, reply_rx) = channel();
        let reader = {
            let shared = Arc::clone(&shared);
            let handle = handle.clone();
            let sink = Arc::clone(&sink);
            let gate = Arc::clone(&gate);
            std::thread::Builder::new()
                .name("cc-net-reader".into())
                .spawn(move || run_reader(stream, handle, reply_tx, gate, sink, shared))
                .expect("spawn connection reader")
        };
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cc-net-writer".into())
                .spawn(move || run_writer(conn_id, reply_rx, gate, sink, shared))
                .expect("spawn connection writer")
        };
        let mut conns = shared.conns.lock().expect("conns lock");
        if let Some(entry) = conns.get_mut(&conn_id) {
            if entry.done {
                // The whole connection finished before this attachment;
                // dropping the handles detaches the exited threads.
                conns.remove(&conn_id);
            } else {
                entry.reader = Some(reader);
                entry.writer = Some(writer);
            }
        }
    }
}

/// A TCP server exposing a [`QueryServer`] fleet over the `cc-net` wire
/// protocol. See the [crate docs](crate) for the protocol and the
/// architecture.
///
/// By default ([`ServingMode::Reactor`]) every accepted connection is
/// multiplexed on one event-driven reactor thread: frames → requests →
/// [`ServiceHandle`] tagged fan-in → reply write queues, with
/// backpressure surfacing as read-pausing. One connection can pipeline
/// any number of requests and receives replies in completion order,
/// tagged with its request ids; a full shard queue pauses that
/// connection's reads, which TCP propagates to the client. The legacy
/// [`ServingMode::ThreadPerConnection`] core (a reader and writer thread
/// per socket) serves identically and remains as a baseline.
pub struct NetServer {
    local_addr: SocketAddr,
    telemetry: Arc<Telemetry>,
    backend: Backend,
    fleet: Option<QueryServer>,
}

/// The running serving core and its shutdown levers.
enum Backend {
    /// Accept loop + per-connection thread pairs, coordinated through
    /// the connection registry.
    Threaded {
        shared: Arc<Shared>,
        accept: Option<JoinHandle<()>>,
    },
    /// The reactor fleet: one or more event-loop threads; `closed` + a
    /// ring on every doorbell get their attention, joining them completes
    /// the drain.
    #[cfg(unix)]
    Reactor {
        shared: Arc<crate::reactor::ReactorShared>,
        wakers: Vec<cc_server::ReplyWaker>,
        threads: Vec<JoinHandle<()>>,
    },
}

impl Backend {
    /// How many reactor event loops serve connections — zero when the
    /// threaded core does.
    fn reactors(&self) -> usize {
        match self {
            Backend::Threaded { .. } => 0,
            #[cfg(unix)]
            Backend::Reactor {
                threads, wakers, ..
            } => threads.len().max(wakers.len()),
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match &self.backend {
            Backend::Threaded { .. } => "thread-per-connection",
            #[cfg(unix)]
            Backend::Reactor { .. } => "reactor",
        };
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("backend", &mode)
            .finish_non_exhaustive()
    }
}

/// Spawns the thread-per-connection core: the fallback for
/// [`ServingMode::Reactor`] on non-unix targets, the whole story for
/// [`ServingMode::ThreadPerConnection`].
fn spawn_threaded(
    listener: TcpListener,
    handle: ServiceHandle,
    telemetry: Arc<Telemetry>,
    registry: Registry,
    config: &NetServerConfig,
) -> Backend {
    let shared = Arc::new(Shared {
        closed: AtomicBool::new(false),
        max_frame_bytes: config.max_frame_bytes,
        write_timeout: config.write_timeout,
        conn_send_buffer: config.conn_send_buffer,
        telemetry,
        registry,
        next_conn: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cc-net-accept".into())
            .spawn(move || accept_loop(listener, handle, shared))
            .expect("spawn accept loop")
    };
    Backend::Threaded {
        shared,
        accept: Some(accept),
    }
}

impl NetServer {
    /// Spawns the fleet, binds `addr` (use port 0 for an ephemeral port)
    /// and starts the configured serving core.
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
        let telemetry = Arc::new(Telemetry::new(&registry));
        let backend = match config.serving_mode {
            #[cfg(unix)]
            ServingMode::Reactor => {
                let shared = Arc::new(crate::reactor::ReactorShared {
                    closed: AtomicBool::new(false),
                    telemetry: Arc::clone(&telemetry),
                    registry: registry.clone(),
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
                Backend::Reactor {
                    shared,
                    wakers,
                    threads,
                }
            }
            #[cfg(not(unix))]
            ServingMode::Reactor => spawn_threaded(
                listener,
                fleet.handle(),
                Arc::clone(&telemetry),
                registry.clone(),
                &config,
            ),
            ServingMode::ThreadPerConnection => spawn_threaded(
                listener,
                fleet.handle(),
                Arc::clone(&telemetry),
                registry.clone(),
                &config,
            ),
        };
        Ok(NetServer {
            local_addr,
            telemetry,
            backend,
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
        self.telemetry.snapshot(
            self.fleet.as_ref().expect("fleet lives until drop").stats(),
            self.backend.reactors(),
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
        let reactors = self.backend.reactors();
        self.telemetry.snapshot(
            self.fleet
                .take()
                .expect("first shutdown consumes the fleet")
                .shutdown(),
            reactors,
        )
    }

    fn shutdown_impl(&mut self) {
        match &mut self.backend {
            Backend::Threaded { shared, accept } => {
                if shared.closed.swap(true, Ordering::AcqRel) {
                    return;
                }
                // The polling accept loop observes `closed` within one
                // sleep interval (the listener drops with it), on any
                // bind address.
                if let Some(accept) = accept.take() {
                    let _ = accept.join();
                }
                let conns = std::mem::take(&mut *shared.conns.lock().expect("conns lock"));
                for conn in conns.values() {
                    // Half-close: readers come off their blocking read and
                    // exit; writers keep the write side until every reply
                    // is out — the accept-time write timeout bounds that
                    // drain against clients that stopped reading, so these
                    // joins cannot park forever.
                    let _ = conn.stream.shutdown(Shutdown::Read);
                }
                for conn in conns.into_values() {
                    if let Some(reader) = conn.reader {
                        let _ = reader.join();
                    }
                    if let Some(writer) = conn.writer {
                        let _ = writer.join();
                    }
                }
            }
            #[cfg(unix)]
            Backend::Reactor {
                shared,
                wakers,
                threads,
            } => {
                if shared.closed.swap(true, Ordering::AcqRel) {
                    return;
                }
                // Ringing every doorbell gets each loop off its wait; the
                // reactors then half-close every connection, answer
                // everything already submitted, flush and exit — the
                // write/idle deadlines bound the drain against stalled
                // peers, so these joins cannot park forever.
                for waker in wakers.iter() {
                    waker();
                }
                for thread in threads.drain(..) {
                    let _ = thread.join();
                }
            }
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

//! # cc-net — the TCP wire protocol over the sharded query fleet
//!
//! After `cc-server`, the fleet of warm clique sessions was reachable
//! only in-process. This crate is the network layer above it — the last
//! hop toward the ROADMAP's "heavy traffic from millions of users"
//! regime — built std-only (`TcpListener`/`TcpStream` + threads, no
//! external dependencies) in three layers:
//!
//! * the **wire codec** ([`codec`]): a versioned, length-prefixed binary
//!   encoding of every [`Request`](cc_server::Request) variant and every
//!   [`Outcome`](cc_core::Outcome)/[`ServerError`](cc_server::ServerError)
//!   reply, written with `cc-core`'s bit-exact
//!   [`BitWriter`](cc_core::wire::BitWriter)/[`BitReader`](cc_core::wire::BitReader);
//! * the **[`NetServer`]**: one or more event-loop threads
//!   ([`with_reactor_threads`](NetServerConfig::with_reactor_threads))
//!   multiplexing *every* accepted connection through a readiness
//!   backend — edge-triggered `epoll` on Linux (fds registered once,
//!   interest masks touched only on state changes, events delivered
//!   O(ready), so idle connections cost nothing), with `poll(2)` as the
//!   portable oracle and the `CC_REACTOR=poll` kill switch (see
//!   [`ReactorBackend`]). Nonblocking sockets, a reusable
//!   [`frame::FrameDecoder`] per connection for partial reads, a
//!   resumable vectored write queue per connection (pipelined replies
//!   coalesce into one `writev`, flushed buffers recycle through a
//!   per-connection pool), fleet fan-in over
//!   [`submit_tagged`](cc_server::ServiceHandle::submit_tagged) with a
//!   self-pipe doorbell per reactor for reply wakeups — so server
//!   threads are O(shards + reactors) while connections are
//!   O(thousands). With multiple reactors, reactor 0 owns the listener
//!   and deals each accepted socket to the least-loaded loop; every
//!   reactor owns its fd set, backend instance and doorbell outright.
//!   Backpressure is read-pausing (a full shard queue *parks* the
//!   request and pauses the socket; nothing is dropped), and slow peers —
//!   byte-dribbling partial frames, never-reading reply sinks — are
//!   evicted on the
//!   [`idle`](NetServerConfig::with_idle_timeout)/[`write`](NetServerConfig::with_write_timeout)
//!   deadline clocks without stalling their neighbors. The reactor is
//!   the only serving core, so the crate builds on Unix targets only;
//! * the **[`CcClient`]**: a blocking client library with plain
//!   [`call`](CcClient::call), batched out-of-order-tolerant
//!   [`pipeline`](CcClient::pipeline), and the
//!   [`submit`](CcClient::submit)/[`wait_next`](CcClient::wait_next)
//!   split that lets one thread drive many connections. Connects and
//!   reads are boundable ([`connect_timeout`](CcClient::connect_timeout),
//!   [`with_read_timeout`](CcClient::with_read_timeout)); the first
//!   failure poisons the connection into deterministic
//!   [`NetError::Disconnected`] replies, and
//!   [`reconnect`](CcClient::reconnect) re-dials, reporting exactly
//!   which in-flight ids were abandoned.
//!
//! ## Frame format
//!
//! Everything on the socket is a **frame**: a 4-byte big-endian payload
//! length, then the payload — an MSB-first bit stream of fixed-width
//! unsigned fields (all widths are multiples of 8, so payloads are
//! byte-aligned and padding-free):
//!
//! ```text
//! frame   := payload_len:u32be payload
//! payload := version:u8  kind:u8  request_id:u64  body
//! kind    := 0 REQUEST     body = request     (client → server)
//!            1 REPLY       body = result      (server → client)
//!            2 PROTO_ERR   body = wire_error  (server → client, fatal)
//!            3 STATS_REQ   body = (empty)     (client → server)
//!            4 STATS_REPLY body = snapshot    (server → client)
//! ```
//!
//! The `request_id` tag is chosen by the client and echoed verbatim in
//! the reply; it is the correlation that makes pipelining work — replies
//! arrive in *completion* order (different clique sizes land on different
//! shards), and the id maps each one back. See [`codec`] for the body
//! grammars and [`frame::DEFAULT_MAX_FRAME_BYTES`] for the size cap that
//! keeps corrupt length prefixes from forcing allocations.
//!
//! `STATS_REQ` ([`CcClient::stats`]) fetches the server's full metric
//! registry — wire counters, reactor loop metrics, per-shard fleet
//! telemetry and the per-stage latency histograms — as a
//! [`Snapshot`](cc_core::obs::Snapshot), answered inline at the wire
//! layer without ever entering the fleet queues.
//!
//! ## Contract
//!
//! The network adds **no semantics**: every reply is bit-identical to
//! what a direct, sequential [`CliqueService`](cc_core::CliqueService)
//! call would produce — outcomes *and* errors
//! ([`ServerError`](cc_server::ServerError) crosses the wire
//! losslessly). Decoding is deterministic: a byte sequence
//! yields exactly one [`Frame`] or exactly one
//! [`WireError`]; undecodable input is answered with a `PROTO_ERR` frame
//! naming the defect, then the connection closes (no resync after a
//! framing error). Backpressure maps down the whole stack: full shard
//! queue → paused connection reads → TCP flow control → blocked
//! client. Shutdown is graceful end to end: every accepted request is
//! answered and every queued reply written before sockets close — the
//! only connections that die early are the ones a deadline clock
//! convicted (counted in [`NetStats::idle_teardowns`]).
//!
//! ```no_run
//! use cc_net::{CcClient, NetServer, NetServerConfig};
//! use cc_server::Request;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = NetServer::bind("127.0.0.1:0", NetServerConfig::new(4))?;
//! let addr = server.local_addr();
//!
//! let mut client = CcClient::connect(addr)?;
//! let inst = cc_core::routing::RoutingInstance::from_demands(16, |_, _| 1)?;
//! let keys: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64]).collect();
//! // Pipeline: both requests are in flight at once, on different shards.
//! let results = client.pipeline(&[Request::RouteOptimized(inst), Request::Sort(keys)])?;
//! assert!(results.iter().all(|r| r.is_ok()));
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.frames_in, 2);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the reactor's `poll(2)`/`epoll` bindings are the
// one `unsafe` island in the crate, explicitly allowed in its `sys`
// module and nowhere else.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("cc-net requires a Unix target: its only serving core is the poll/epoll reactor");

mod client;
pub mod codec;
mod error;
pub mod frame;
mod reactor;
mod server;

pub use client::{CcClient, PIPELINE_WINDOW};
pub use codec::{Frame, WireResult, WIRE_VERSION};
pub use error::{NetError, WireError};
pub use frame::{DEFAULT_MAX_FRAME_BYTES, DEFAULT_MAX_REPLY_FRAME_BYTES};
pub use server::{
    NetServer, NetServerConfig, NetStats, ReactorBackend, DEFAULT_IDLE_TIMEOUT,
    DEFAULT_WRITE_TIMEOUT, MAX_CONN_INFLIGHT,
};

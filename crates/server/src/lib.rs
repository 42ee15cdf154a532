//! # cc-server — concurrent, sharded query serving over a fleet of clique sessions
//!
//! [`CliqueService`](cc_core::CliqueService) answers queries on one
//! persistent session through `&mut self`: a single thread, one clique
//! size amortized at a time. This crate is the layer above, for the
//! ROADMAP's heavy-traffic regime — many client threads, many clique
//! sizes, one shared substrate:
//!
//! * a [`QueryServer`] spawns a configurable number of **shard workers**,
//!   each owning a lazy `n → CliqueService` map, so every clique size's
//!   sessions are warmed exactly once and then reused for every later
//!   query of that size (same-`n` requests always hash to the same
//!   shard);
//! * cloneable [`ServiceHandle`]s let any number of client threads submit
//!   typed [`Request`]s concurrently — the handle is `Send + Sync`, the
//!   per-request reply comes back on a private channel; the
//!   [`submit_tagged`](ServiceHandle::submit_tagged) flavor instead routes
//!   every answer onto one shared channel as an id-tagged [`TaggedReply`],
//!   in completion order — the fan-in a connection multiplexer (the
//!   `cc-net` wire server) needs for pipelined out-of-order replies;
//! * shard queues are **bounded**: [`ServiceHandle::call`] blocks when a
//!   queue is full (backpressure), [`ServiceHandle::try_call`] returns
//!   [`ServerError::Overloaded`] instead;
//! * a shard drains its queue in gulps and **coalesces** the drained run
//!   into per-clique-size batches served back-to-back on one warm
//!   session — the server-side analogue of
//!   `cc_sim::CliqueSession::run_many` —
//!   recording batch-size telemetry as it goes;
//! * [`QueryServer::shutdown`] is **graceful**: in-flight and queued
//!   requests are answered before the workers exit, and late callers get
//!   [`ServerError::ShutDown`] rather than a hang;
//! * [`FleetStats`] aggregates, per shard, the underlying
//!   [`SessionStats`](cc_core::SessionStats) counters plus queue-depth
//!   and batch-size telemetry.
//!
//! The contract is inherited from the session layer and asserted under
//! concurrent load in the workspace's `tests/server.rs`: **every response
//! is bit-identical to a direct sequential
//! [`CliqueService`](cc_core::CliqueService) call** — sharding,
//! coalescing and interleaving are invisible in the answers, exactly as
//! the paper's determinism is invisible to scheduling. (Amortizing fixed
//! per-invocation costs across many instances is the same argument as
//! the multi-instance scheduling of Chang–Huang–Su, *Deterministic
//! Expander Routing: Faster and More Versatile*.)
//!
//! ```rust
//! use cc_server::{QueryServer, Request, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = QueryServer::new(ServerConfig::new(2))?;
//! let handle = server.handle();
//!
//! // Handles are cheap to clone and safe to use from many threads.
//! let worker = {
//!     let handle = handle.clone();
//!     std::thread::spawn(move || {
//!         let keys: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64]).collect();
//!         handle.call(Request::Sort(keys))
//!     })
//! };
//! let inst = cc_core::routing::RoutingInstance::from_demands(8, |_, _| 1)?;
//! let routed = handle.call(Request::Route(inst))?;
//! assert!(routed.metrics().comm_rounds() <= 16);
//! assert!(worker.join().unwrap().is_ok());
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.requests(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod request;
mod server;
mod shard;
mod stats;

pub use config::ServerConfig;
pub use error::ServerError;
pub use request::{QueryResult, Request};
pub use server::{Pending, QueryServer, ServiceHandle};
pub use shard::{ReplyWaker, TaggedReply};
pub use stats::{FleetStats, ShardStats};

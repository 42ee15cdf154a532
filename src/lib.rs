//! # congested-clique
//!
//! A production-quality Rust reproduction of Christoph Lenzen's *Optimal
//! Deterministic Routing and Sorting on the Congested Clique* (PODC 2013):
//! deterministic **16-round** routing (Theorem 3.7), **12-round** routing
//! with `O(n log n)` work and memory (Theorem 5.4), **33-round** sorting
//! (Algorithm 4 with Theorem 5.4's router in Step 6; the paper states 37
//! with Theorem 3.7), constant-round selection/mode/index queries
//! (Corollary 4.6), and the two-round small-key census of §6.3 — all
//! executed and *measured* on a synchronous congested-clique simulator
//! that enforces the model's `O(log n)`-bit per-edge budget.
//!
//! This crate re-exports the workspace:
//!
//! * [`sim`] — the execution model (engine, metrics, bit budgets);
//! * [`coloring`] — König edge colorings of regular bipartite multigraphs;
//! * [`primitives`] — the constant-round communication primitives
//!   (Corollaries 3.3/3.4, broadcasts, scatters);
//! * [`core`] — the paper's algorithms and the [`CongestedClique`] facade;
//! * [`server`] — the concurrent sharded [`QueryServer`] over a fleet of
//!   persistent clique sessions;
//! * [`net`] — the TCP wire protocol, [`NetServer`] and [`CcClient`]
//!   library exposing that fleet over real sockets;
//! * [`obs`] — the std-only observability kit (counters, gauges,
//!   mergeable latency histograms, registry snapshots) every serving
//!   layer records into;
//! * [`baselines`] — randomized and strawman comparators;
//! * [`workloads`] — instance generators.
//!
//! ## Quickstart
//!
//! ```rust
//! use congested_clique::CongestedClique;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 16;
//! let clique = CongestedClique::new(n)?;
//!
//! // Route a fully loaded balanced instance in 16 rounds.
//! let instance = congested_clique::workloads::balanced_random(n, 42)?;
//! let routed = clique.route(&instance)?;
//! assert_eq!(routed.metrics.comm_rounds(), 16);
//!
//! // Sort n² keys in 33 rounds.
//! let keys = congested_clique::workloads::uniform_keys(n, 7);
//! let sorted = clique.sort(&keys)?;
//! assert_eq!(sorted.metrics.comm_rounds(), 33);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cc_baselines as baselines;
pub use cc_coloring as coloring;
pub use cc_core as core;
pub use cc_net as net;
pub use cc_obs as obs;
pub use cc_primitives as primitives;
pub use cc_server as server;
pub use cc_sim as sim;
pub use cc_workloads as workloads;

pub use cc_core::{CliqueService, CongestedClique, CoreError, Outcome};
pub use cc_net::{
    CcClient, NetError, NetServer, NetServerConfig, ReactorBackend, ServingMode, WireError,
};
pub use cc_server::{QueryServer, Request, ServerConfig, ServerError, ServiceHandle};

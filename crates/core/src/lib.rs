//! # cc-core — deterministic routing and sorting on the congested clique
//!
//! A faithful, measured implementation of Christoph Lenzen's *Optimal
//! Deterministic Routing and Sorting on the Congested Clique* (PODC 2013):
//!
//! * **Routing** ([`routing`]): the Information Distribution Task
//!   (Problem 3.1) — every node is source and destination of up to `n`
//!   `O(log n)`-bit messages — solved deterministically in **16 rounds**
//!   (Theorem 3.7), plus the computation- and memory-optimal §5 variant in
//!   **12 rounds** with `O(n log n)` work and memory per node
//!   (Theorem 5.4), and the §6.1 large-message wrapper.
//! * **Sorting** ([`sorting`]): Problem 4.1 — every node holds up to `n`
//!   keys and must learn its batch in the global order — solved in **33
//!   rounds** (Algorithm 4 with Theorem 5.4's router in Step 6; the paper
//!   states 37 with Theorem 3.7) on top of the routing machinery; the
//!   `√n`-node subset sort of Algorithm 3 (**10 rounds**, Lemma 4.4); the
//!   global-index variant of Corollary 4.6 with constant-round selection
//!   and mode; and the §6.3 small-key protocol with 1–2-bit messages.
//!
//! All round counts are *measured* by the `cc-sim` engine, not asserted:
//! every protocol here runs on the simulator, which enforces the per-edge
//! `O(log n)`-bit budget and counts the communication rounds the paper's
//! theorems bound.
//!
//! Two facades bundle the common entry points: the stateless
//! [`CongestedClique`] (a fresh session per call) and the stateful
//! [`CliqueService`] (one persistent `cc_sim::CliqueSession` answering
//! every call, amortizing thread and arena setup across queries —
//! bit-identical answers, see [`CliqueService`]). Both expose `route`,
//! `route_optimized`, `sort`, `global_indices`, `select`, `mode` and
//! `small_key_census` through the same internal drivers.
//!
//! The stateless facade:
//!
//! ```rust
//! use cc_core::CongestedClique;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clique = CongestedClique::new(16)?;
//!
//! // Route a cyclic workload: node i sends its n messages to node i+1.
//! let instance = cc_core::routing::RoutingInstance::from_demands(16, |i, j| {
//!     u32::from(j == (i + 1) % 16) * 16
//! })?;
//! let outcome = clique.route(&instance)?;
//! assert!(outcome.metrics.comm_rounds() <= 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clique;
mod error;
mod service;

pub mod routing;
pub mod sorting;
pub mod sortkey;

pub use clique::CongestedClique;
pub use error::CoreError;
pub use service::{CliqueService, Outcome};

// What the layers above the service (the `cc-server` shard workers,
// `ccbench`) need without reaching into `cc-sim` themselves: the per-session
// counters behind [`CliqueService::stats`] and the per-run measurements
// embedded in every outcome.
pub use cc_sim::{Metrics, SessionStats};

// The bit-exact encoding substrate, plus every type embedded in the
// outcomes and errors the entry points return. `cc-net`'s wire codec
// serializes all of it through these — the same machinery the simulator
// uses to charge message sizes — re-exported so codec layers need only a
// `cc-core` dependency.
pub use cc_sim::wire;
pub use cc_sim::{EdgeLoadHistogram, NodeId, RoundMetrics, SimError, WorkMeter};

// The observability layer the serving tiers share: `cc-server` registers
// its fleet telemetry here and `cc-net` both instruments its reactor and
// ships whole-registry [`obs::Snapshot`]s over the wire. Re-exported so
// those layers (and codec code in particular) keep a single-dependency
// story, mirroring the `wire` re-export above.
pub use cc_obs as obs;

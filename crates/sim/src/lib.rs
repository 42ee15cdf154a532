//! # cc-sim — a synchronous congested-clique simulator
//!
//! This crate implements the execution model of Lenzen's *Optimal
//! Deterministic Routing and Sorting on the Congested Clique* (PODC 2013),
//! §2: a fully connected system of `n` nodes computing in lock-step
//! synchronous rounds, where in each round every ordered pair of nodes may
//! exchange a message of `O(log n)` bits.
//!
//! The simulator is the *substrate* on which the routing and sorting
//! algorithms of the paper (see the `cc-core` crate) are executed and
//! measured. It enforces the model's only resource constraint — a
//! per-directed-edge, per-round **bit budget** — and counts the quantities
//! the paper's theorems are stated in: rounds, messages, and bits.
//!
//! ## Architecture
//!
//! * A protocol is implemented as a [`NodeMachine`]: a per-node state
//!   machine whose [`NodeMachine::on_round`] is invoked once per synchronous
//!   round with the messages received in that round.
//! * A [`CliqueSession`] runs one machine per node, moves messages
//!   between them, enforces the bit budget and records [`Metrics`]. It
//!   keeps worker threads, message arenas and caches alive *across*
//!   runs, so many (even heterogeneous) protocol runs can share one
//!   process, e.g. a query service. Reuse is observably free: a warm
//!   session is bit-identical to a fresh one in every [`ExecMode`].
//!   [`run_protocol`] is the one-run shorthand: a fresh session, dropped
//!   when the run ends.
//! * Deterministic algorithms on the clique repeatedly evaluate *identical*
//!   functions of common knowledge on every node (e.g. an edge coloring of a
//!   globally known demand multigraph). The [`CommonCache`] memoizes such
//!   computations across nodes while *verifying* that every participant
//!   supplies bit-identical input — turning the common-knowledge assumption
//!   into a runtime-checked invariant.
//! * [`wire`] provides bit-exact encoding used by tests to validate that
//!   declared [`Payload::size_bits`] values are honest upper bounds.
//!
//! ## Execution modes, parallelism and determinism
//!
//! Rounds are embarrassingly parallel across nodes — each machine touches
//! only its own state — and the engine exploits exactly that structure:
//!
//! * **Delivery** is a counting/bucket pass over destinations (`dst < n`
//!   is a perfect small key): one pass buckets each sender's fan-out, one
//!   pass validates budgets (tracking the lowest failing destination), one
//!   pass moves messages straight into per-destination inbox buffers. No
//!   comparison sort, no quadratic drain.
//! * **Node-local key sorts** go through the [`radix`] scatter-key
//!   engine: batches of [`RADIX_MIN_LEN`](radix::RADIX_MIN_LEN) or more
//!   `(u64 key, payload)` pairs are ordered by LSD radix passes
//!   (count → exclusive scan → scatter) whose digit width adapts to the
//!   XOR-diff of the key range. Every path is stable, so radix and the
//!   comparison fallback (kept as the test oracle, and selectable at
//!   runtime via `CC_RADIX=off`) produce bit-identical orders.
//! * **Buffers are recycled**: outboxes, inboxes and the delivery scratch
//!   keep their capacity across rounds and across a session's runs —
//!   including the radix sort's [`RadixScratch`](radix::RadixScratch) —
//!   so steady-state rounds perform no allocation for message movement.
//! * **Stepping** runs `on_round` for disjoint chunks of nodes on the
//!   session's **persistent worker pool** when the selected [`ExecMode`]
//!   resolves to more than one worker: workers are spawned on first use,
//!   parked on their job channel between rounds, and each round receive
//!   ownership of their node chunk (a few `Vec` headers), step it, and
//!   hand it back. The per-round hand-off is a channel send, so even
//!   small cliques parallelize profitably (see
//!   [`PARALLEL_AUTO_THRESHOLD`] and [`PARALLEL_MIN_CHUNK`]). The pool
//!   outlives the *run* too: workers are type-erased and parked between
//!   runs, so a batch of protocol runs — even of different protocols —
//!   spawns no threads at all after the first.
//!
//! Every mode — [`ExecMode::Sequential`], [`ExecMode::Parallel`], the
//!   default [`ExecMode::Auto`], and [`ExecMode::SeedReference`] (the
//!   pre-optimization engine, kept as the oracle the determinism suites
//!   compare every other mode against) — produces **bit-identical**
//!   [`RunReport`]s for deterministic protocols: inboxes deliver in
//!   ascending sender order (per-sender send order preserved), per-node
//!   work meters are indexed by node, and model violations are detected
//!   in the sequential delivery pass so the lowest-`(src, dst)`
//!   violation is reported regardless of worker interleaving — including
//!   messages still queued when every node has finished, which are
//!   classified as [`SimError::MessageToFinishedNode`] at the lowest
//!   in-range destination or [`SimError::DestinationOutOfRange`] when the
//!   sender queued only out-of-range destinations. Select a mode with
//!   [`CliqueSpec::with_exec`].
//!
//! ## Example
//!
//! ```rust
//! use cc_sim::{run_protocol, CliqueSpec, Ctx, Inbox, NodeMachine, Payload, Step};
//!
//! /// Every node sends its id to every other node and sums what it hears.
//! struct SumIds;
//!
//! #[derive(Clone, Debug)]
//! struct IdMsg(u64);
//!
//! impl Payload for IdMsg {
//!     fn size_bits(&self, n: usize) -> u64 {
//!         cc_sim::util::word_bits(n)
//!     }
//! }
//!
//! impl NodeMachine for SumIds {
//!     type Msg = IdMsg;
//!     type Output = u64;
//!
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
//!         for v in ctx.nodes() {
//!             ctx.send(v, IdMsg(ctx.me().index() as u64));
//!         }
//!     }
//!
//!     fn on_round(
//!         &mut self,
//!         _ctx: &mut Ctx<'_, Self::Msg>,
//!         inbox: &mut Inbox<Self::Msg>,
//!     ) -> Step<Self::Output> {
//!         Step::Done(inbox.drain().map(|(_, m)| m.0).sum())
//!     }
//! }
//!
//! # fn main() -> Result<(), cc_sim::SimError> {
//! let n = 8;
//! let report = run_protocol(CliqueSpec::new(n)?, |_| SumIds)?;
//! assert_eq!(report.metrics.comm_rounds(), 1);
//! assert!(report.outputs.iter().all(|&s| s == (0..n as u64).sum()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod engine;
mod error;
mod inbox;
mod metrics;
mod node;
mod payload;
mod pool;
mod session;
mod spec;
mod work;

pub mod hash;
pub mod radix;
pub mod util;
pub mod wire;

pub use common::{CommonCache, CommonScope};
pub use engine::{run_protocol, BaseCtx, Ctx, NodeMachine, RunReport, Step};
pub use error::SimError;
pub use inbox::Inbox;
pub use metrics::{EdgeLoadHistogram, Metrics, RoundMetrics};
pub use node::NodeId;
pub use payload::Payload;
pub use session::{BatchReport, CliqueSession, SessionStats};
pub use spec::{
    CliqueSpec, ExecMode, DEFAULT_BUDGET_WORDS, DEFAULT_MAX_ROUNDS, DEFAULT_MAX_SILENT_ROUNDS,
    PARALLEL_AUTO_THRESHOLD, PARALLEL_MIN_CHUNK,
};
pub use work::WorkMeter;

//! The Information Distribution Task (Problem 3.1) and its deterministic
//! constant-round solutions.
//!
//! * [`RoutingInstance`] / [`RoutedMessage`] — the problem statement:
//!   every node is source and destination of up to `n` messages of
//!   `O(log n)` bits, only sources initially know destinations/contents.
//! * [`route_deterministic`] — Theorem 3.7: **16 rounds**, any `n`
//!   (perfect squares run Algorithm 1 directly; other `n` use the
//!   V1/V2/V3 parallel decomposition).
//! * [`route_optimized`] — Theorem 5.4: **12 rounds** with `O(n log n)`
//!   local computation and memory per node (§5's round-robin scatter and
//!   message-grouping devices).
//! * [`route_large_messages`] — §6.1: messages of `L ∈ ω(log n)` bits are
//!   fragmented into `⌈L / word⌉` instances.

mod general;
mod instance;
mod large;
mod optimized;
mod square;

pub(crate) use general::route_on;
pub use general::{
    max_message_bits, route_deterministic, route_with_spec, spec_for_routing, CxMsg, GMsg,
    RouteOutcome, RouterMachine,
};
pub use instance::{RoutedMessage, RoutingInstance};
pub use large::{route_large_messages, LargeMessage, LargeOutcome};
pub(crate) use optimized::route_optimized_on;
pub use optimized::{
    route_optimized, route_optimized_with_spec, spec_for_optimized, OGMsg, OptMsg, OptRouterMachine,
};
pub use square::{Inter, RoutePayload, SqMsg};

use crate::error::SimError;
use crate::util::word_bits;

/// Cliques below this size never auto-select threaded stepping: a round of
/// `on_round` calls on a few dozen nodes finishes faster than the worker
/// hand-off costs.
///
/// Workers belong to the [`CliqueSession`](crate::CliqueSession) and are
/// parked between rounds, so the hand-off is a channel send rather than a
/// thread spawn.
pub const PARALLEL_AUTO_THRESHOLD: usize = 64;

/// Minimum nodes per worker chunk that [`ExecMode::Auto`] will schedule.
///
/// Workers are parked between rounds, so a chunk only has to amortize a
/// channel hand-off (microseconds), not a thread spawn/join. Explicit
/// [`ExecMode::Parallel`] counts are honored as given.
pub const PARALLEL_MIN_CHUNK: usize = 8;

/// How the engine executes a run.
///
/// Every mode produces **bit-identical** [`RunReport`](crate::RunReport)s
/// for a deterministic protocol: message delivery is always performed on
/// the driving thread in ascending sender order, node stepping touches
/// only per-node state, and error precedence is fixed at the lowest
/// `(src, dst)` violation — so the mode only changes wall-clock time,
/// never observable behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Threaded stepping when the host has more than one core and the
    /// clique has at least [`PARALLEL_AUTO_THRESHOLD`] nodes; sequential
    /// otherwise. The worker
    /// count is capped so each chunk holds at least
    /// [`PARALLEL_MIN_CHUNK`] nodes.
    #[default]
    Auto,
    /// Single-threaded stepping (still uses the bucketed delivery path).
    Sequential,
    /// Step nodes on exactly `threads` pooled workers (`0` = one per
    /// available core, clamped to the clique size); the session spawns
    /// them on first use and parks them between rounds and runs.
    Parallel {
        /// Number of stepping workers; `0` selects one per available core.
        threads: usize,
    },
    /// The pre-optimization engine: comparison-sort delivery with a
    /// quadratic drain and fresh inbox allocations every round. It keeps
    /// its own round loop and delivery pass (no buckets, no buffer reuse,
    /// no chunked stepping), which is what makes it the determinism
    /// oracle: the mode-matrix suites
    /// (`crates/sim/tests/determinism.rs`, `crates/sim/tests/session.rs`,
    /// `tests/determinism.rs` and `tests/radix_determinism.rs`) assert
    /// that every other mode reproduces its `RunReport`s bit for bit.
    /// Too slow for real runs.
    SeedReference,
}

impl ExecMode {
    /// The number of stepping workers this mode resolves to for an
    /// `n`-node clique on this host (1 means sequential stepping).
    pub fn worker_threads(self, n: usize) -> usize {
        let cores = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        match self {
            ExecMode::Sequential | ExecMode::SeedReference => 1,
            ExecMode::Auto => {
                if n < PARALLEL_AUTO_THRESHOLD {
                    1
                } else {
                    // Cap workers so every chunk amortizes its per-round
                    // hand-off cost (see PARALLEL_MIN_CHUNK).
                    cores().min(n / PARALLEL_MIN_CHUNK).max(1)
                }
            }
            ExecMode::Parallel { threads } => {
                let t = if threads == 0 { cores() } else { threads };
                t.clamp(1, n.max(1))
            }
        }
    }
}

/// Configuration of a simulated congested clique.
///
/// Built with [`CliqueSpec::new`] and refined with the `with_*` builder
/// methods ([C-BUILDER]):
///
/// ```rust
/// # fn main() -> Result<(), cc_sim::SimError> {
/// let spec = cc_sim::CliqueSpec::new(64)?
///     .with_budget_words(6)
///     .with_max_rounds(100)
///     .with_edge_histogram(true);
/// assert_eq!(spec.n(), 64);
/// assert_eq!(spec.bits_per_edge(), 36); // 6 words × ⌈log₂ 64⌉
/// # Ok(())
/// # }
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#builders-enable-construction-of-complex-values-c-builder
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueSpec {
    n: usize,
    bits_per_edge: u64,
    max_rounds: u64,
    max_silent_rounds: u64,
    record_edge_histogram: bool,
    exec: ExecMode,
}

/// Default per-edge budget, in machine words of `⌈log₂ n⌉` bits.
///
/// Generous enough for every protocol in this workspace: the widest
/// messages are bundled sort keys (4 keys of 2 words) plus a piggybacked
/// announcement word.
pub const DEFAULT_BUDGET_WORDS: u64 = 16;

/// Default bound on the number of rounds before the engine aborts.
pub const DEFAULT_MAX_ROUNDS: u64 = 100_000;

/// Default bound on *consecutive* rounds without any message or node
/// completion before the engine declares the protocol stalled.
///
/// Lockstep protocols may legitimately pass through a few message-free
/// rounds (e.g. a sub-phase with nothing to exchange still advances its
/// fixed round schedule); unbounded silence indicates a livelock.
pub const DEFAULT_MAX_SILENT_ROUNDS: u64 = 64;

impl CliqueSpec {
    /// Creates a spec for an `n`-node clique with the default budget of
    /// [`DEFAULT_BUDGET_WORDS`] machine words per directed edge per round.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSpec`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SimError> {
        if n == 0 {
            return Err(SimError::InvalidSpec {
                reason: "clique must have at least one node".to_owned(),
            });
        }
        Ok(CliqueSpec {
            n,
            bits_per_edge: DEFAULT_BUDGET_WORDS * word_bits(n),
            max_rounds: DEFAULT_MAX_ROUNDS,
            max_silent_rounds: DEFAULT_MAX_SILENT_ROUNDS,
            record_edge_histogram: false,
            exec: ExecMode::Auto,
        })
    }

    /// Sets the per-edge per-round budget to `words` machine words
    /// (`words × ⌈log₂ n⌉` bits).
    #[must_use]
    pub fn with_budget_words(mut self, words: u64) -> Self {
        self.bits_per_edge = words * word_bits(self.n);
        self
    }

    /// Sets the per-edge per-round budget to an explicit number of bits.
    #[must_use]
    pub fn with_bits_per_edge(mut self, bits: u64) -> Self {
        self.bits_per_edge = bits;
        self
    }

    /// Sets the maximum number of rounds before the engine gives up.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the maximum number of consecutive silent (no message, no
    /// completion) rounds tolerated before [`SimError::Stalled`].
    #[must_use]
    pub fn with_max_silent_rounds(mut self, max_silent_rounds: u64) -> Self {
        self.max_silent_rounds = max_silent_rounds;
        self
    }

    /// Enables recording of the per-edge bit-load histogram (used by the
    /// load-balance experiment E14; costs extra bookkeeping per round).
    #[must_use]
    pub fn with_edge_histogram(mut self, enabled: bool) -> Self {
        self.record_edge_histogram = enabled;
        self
    }

    /// Selects the execution mode (see [`ExecMode`]). All modes are
    /// observably identical; this only trades wall-clock time.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Number of nodes in the clique.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-directed-edge, per-round bit budget.
    #[inline]
    pub fn bits_per_edge(&self) -> u64 {
        self.bits_per_edge
    }

    /// Maximum number of rounds before [`SimError::TooManyRounds`].
    #[inline]
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// Maximum consecutive silent rounds before [`SimError::Stalled`].
    #[inline]
    pub fn max_silent_rounds(&self) -> u64 {
        self.max_silent_rounds
    }

    /// Whether the per-edge load histogram is recorded.
    #[inline]
    pub fn records_edge_histogram(&self) -> bool {
        self.record_edge_histogram
    }

    /// The configured execution mode.
    #[inline]
    pub fn exec(&self) -> ExecMode {
        self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_clique() {
        assert!(matches!(
            CliqueSpec::new(0),
            Err(SimError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn default_budget_scales_with_log_n() {
        let spec = CliqueSpec::new(1024).unwrap();
        assert_eq!(spec.bits_per_edge(), DEFAULT_BUDGET_WORDS * 10);
    }

    #[test]
    fn builder_overrides() {
        let spec = CliqueSpec::new(16)
            .unwrap()
            .with_bits_per_edge(7)
            .with_max_rounds(3);
        assert_eq!(spec.bits_per_edge(), 7);
        assert_eq!(spec.max_rounds(), 3);
        assert!(!spec.records_edge_histogram());
        assert_eq!(spec.exec(), ExecMode::Auto);
        let spec = spec.with_exec(ExecMode::Sequential);
        assert_eq!(spec.exec(), ExecMode::Sequential);
    }

    #[test]
    fn exec_mode_resolution() {
        assert_eq!(ExecMode::Sequential.worker_threads(1024), 1);
        assert_eq!(ExecMode::SeedReference.worker_threads(1024), 1);
        // Small cliques never auto-parallelize.
        assert_eq!(
            ExecMode::Auto.worker_threads(PARALLEL_AUTO_THRESHOLD - 1),
            1
        );
        // Explicit thread counts are honored (clamped to n).
        assert_eq!(ExecMode::Parallel { threads: 3 }.worker_threads(1024), 3);
        assert_eq!(ExecMode::Parallel { threads: 64 }.worker_threads(8), 8);
        assert!(ExecMode::Parallel { threads: 0 }.worker_threads(1024) >= 1);
    }
}

//! A persistent query service over the paper's protocols.
//!
//! [`CongestedClique`](crate::CongestedClique) is stateless: every call
//! runs on a fresh session — new worker threads, new message arenas.
//! [`CliqueService`] is the long-lived counterpart for the
//! repeated-invocation regime (cf. Chang–Huang–Su, *Deterministic
//! Expander Routing*: one routing substrate serving many successive
//! instances): it owns a [`CliqueSession`] and answers every query on it,
//! so threads and arenas are reused across calls — across *different*
//! protocols, too, since the session's workers are type-erased.
//!
//! Determinism carries over unchanged: each answer is bit-identical to
//! the one the stateless facade would produce, because the session's
//! contract is bit-identical [`RunReport`](cc_sim::RunReport)s and the
//! protocol drivers are literally the same functions, handed a fresh
//! session or this one.

use crate::error::CoreError;
use crate::routing::{
    route_on, route_optimized_on, spec_for_optimized, spec_for_routing, RouteOutcome,
    RoutingInstance,
};
use crate::sorting::{
    global_indices_on, mode_query_on, select_rank_on, small_key_census_on, sort_on,
    spec_for_census, spec_for_sorting, IndexOutcome, ModeOutcome, SelectOutcome, SmallKeyOutcome,
    SortOutcome,
};
use crate::CongestedClique;
use cc_sim::{CliqueSession, Metrics, SessionStats};

/// The unified response of the seven query entry points: one variant per
/// protocol family, so a caller that multiplexes heterogeneous queries —
/// such as the `cc-server` shard workers — can carry any answer through a
/// single channel type. Wrapping is free (the outcome moves in), and
/// equality is structural, so "bit-identical to a direct
/// [`CliqueService`] call" is expressible as plain `==` on [`Outcome`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A [`CliqueService::route`] / [`CliqueService::route_optimized`]
    /// answer.
    Route(RouteOutcome),
    /// A [`CliqueService::sort`] answer.
    Sort(SortOutcome),
    /// A [`CliqueService::global_indices`] answer.
    Indices(IndexOutcome),
    /// A [`CliqueService::select`] answer.
    Select(SelectOutcome),
    /// A [`CliqueService::mode`] answer.
    Mode(ModeOutcome),
    /// A [`CliqueService::small_key_census`] answer.
    SmallKeys(SmallKeyOutcome),
}

impl Outcome {
    /// The simulator measurements of the run behind this answer, whatever
    /// the variant.
    pub fn metrics(&self) -> &Metrics {
        match self {
            Outcome::Route(o) => &o.metrics,
            Outcome::Sort(o) => &o.metrics,
            Outcome::Indices(o) => &o.metrics,
            Outcome::Select(o) => &o.metrics,
            Outcome::Mode(o) => &o.metrics,
            Outcome::SmallKeys(o) => &o.metrics,
        }
    }
}

/// A stateful facade answering routing/sorting/selection queries on one
/// persistent [`CliqueSession`].
///
/// Prefer this over [`CongestedClique`] whenever more than a handful of
/// queries hit the same clique size: Lenzen's protocols are
/// constant-round, so for small `n` the per-run setup a fresh session
/// pays (thread spawns, arena allocations) is a dominant cost that the
/// service amortizes away. For a single query, or when `&self` access
/// matters (the service's methods take `&mut self` because the session
/// mutates its arenas), the stateless facade remains the right tool.
///
/// ```rust
/// use cc_core::CliqueService;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut service = CliqueService::new(16)?;
/// let instance = cc_core::routing::RoutingInstance::from_demands(16, |_, _| 1)?;
/// for _ in 0..3 {
///     let outcome = service.route(&instance)?;
///     assert!(outcome.metrics.comm_rounds() <= 16);
/// }
/// let keys: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
/// let sorted = service.sort(&keys)?;
/// assert_eq!(sorted.total, 16);
/// assert_eq!(service.stats().completed(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CliqueService {
    clique: CongestedClique,
    session: CliqueSession,
}

impl CliqueService {
    /// Creates a service for an `n`-node clique. Worker threads are
    /// spawned lazily by the first query whose
    /// [`ExecMode`](cc_sim::ExecMode) resolves to more than one worker.
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        Ok(CliqueService {
            clique: CongestedClique::new(n)?,
            session: CliqueSession::new(),
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.clique.n()
    }

    /// Aggregate counters over every query answered so far.
    #[inline]
    pub fn stats(&self) -> &SessionStats {
        self.session.stats()
    }

    /// As [`CongestedClique::route`], on the persistent session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::route`].
    pub fn route(&mut self, instance: &RoutingInstance) -> Result<RouteOutcome, CoreError> {
        self.clique.check(instance.n())?;
        route_on(instance, spec_for_routing(instance.n()), &mut self.session)
    }

    /// As [`CongestedClique::route_optimized`], on the persistent session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::route_optimized`].
    pub fn route_optimized(
        &mut self,
        instance: &RoutingInstance,
    ) -> Result<RouteOutcome, CoreError> {
        self.clique.check(instance.n())?;
        route_optimized_on(
            instance,
            spec_for_optimized(instance.n()),
            &mut self.session,
        )
    }

    /// As [`CongestedClique::sort`], on the persistent session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::sort`].
    pub fn sort(&mut self, keys: &[Vec<u64>]) -> Result<SortOutcome, CoreError> {
        self.clique.check(keys.len())?;
        sort_on(keys, spec_for_sorting(keys.len()), &mut self.session)
    }

    /// As [`CongestedClique::global_indices`], on the persistent session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::global_indices`].
    pub fn global_indices(&mut self, keys: &[Vec<u64>]) -> Result<IndexOutcome, CoreError> {
        self.clique.check(keys.len())?;
        global_indices_on(keys, spec_for_sorting(keys.len()), &mut self.session)
    }

    /// As [`CongestedClique::select`], on the persistent session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::select`].
    pub fn select(&mut self, keys: &[Vec<u64>], rank: u64) -> Result<SelectOutcome, CoreError> {
        self.clique.check(keys.len())?;
        select_rank_on(keys, rank, spec_for_sorting(keys.len()), &mut self.session)
    }

    /// As [`CongestedClique::mode`], on the persistent session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::mode`].
    pub fn mode(&mut self, keys: &[Vec<u64>]) -> Result<ModeOutcome, CoreError> {
        self.clique.check(keys.len())?;
        mode_query_on(keys, spec_for_sorting(keys.len()), &mut self.session)
    }

    /// As [`CongestedClique::small_key_census`], on the persistent
    /// session.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::small_key_census`].
    pub fn small_key_census(
        &mut self,
        keys: &[Vec<u64>],
        key_bits: u32,
    ) -> Result<SmallKeyOutcome, CoreError> {
        self.clique.check(keys.len())?;
        small_key_census_on(
            keys,
            key_bits,
            spec_for_census(keys.len()),
            &mut self.session,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_reuses_one_session_across_protocols() {
        let n = 9;
        let mut service = CliqueService::new(n).unwrap();
        let inst = RoutingInstance::from_demands(n, |_, _| 1).unwrap();
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 5 + j) % 13) as u64).collect())
            .collect();
        assert!(service.route(&inst).unwrap().metrics.comm_rounds() <= 16);
        assert!(
            service
                .route_optimized(&inst)
                .unwrap()
                .metrics
                .comm_rounds()
                <= 12
        );
        assert_eq!(
            service.sort(&keys).unwrap().metrics.comm_rounds(),
            u64::from(crate::sorting::FullSortMachine::ROUNDS)
        );
        assert!(service.select(&keys, 40).is_ok());
        assert!(service.mode(&keys).is_ok());
        assert!(service.global_indices(&keys).is_ok());
        assert_eq!(service.stats().completed(), 6);
        assert_eq!(service.stats().failed(), 0);
    }

    #[test]
    fn service_rejects_mismatched_instances_like_the_facade() {
        let mut service = CliqueService::new(9).unwrap();
        let inst = RoutingInstance::from_demands(4, |_, _| 1).unwrap();
        assert!(service.route(&inst).is_err());
        assert!(service.sort(&vec![vec![]; 4]).is_err());
        // Facade-level rejections never reach the session.
        assert_eq!(service.stats().runs(), 0);
    }

    #[test]
    fn service_rejects_empty_clique() {
        assert!(CliqueService::new(0).is_err());
    }
}

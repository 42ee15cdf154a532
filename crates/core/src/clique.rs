use crate::error::CoreError;
use crate::routing::{route_deterministic, route_optimized, RouteOutcome, RoutingInstance};
use crate::sorting::{
    global_indices, mode_query, select_rank, small_key_census, sort_keys, IndexOutcome,
    ModeOutcome, SelectOutcome, SmallKeyOutcome, SortOutcome,
};
use cc_sim::util::isqrt;

/// A facade bundling the paper's algorithms for a fixed clique size.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct CongestedClique {
    n: usize,
}

impl CongestedClique {
    /// Creates a facade for an `n`-node clique.
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::invalid("clique must have at least one node"));
        }
        Ok(CongestedClique { n })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `⌊√n⌋`, the side length of the node groups the algorithms use.
    #[inline]
    pub fn sqrt_n(&self) -> usize {
        isqrt(self.n)
    }

    pub(crate) fn check(&self, instance_n: usize) -> Result<(), CoreError> {
        if instance_n != self.n {
            return Err(CoreError::invalid(format!(
                "instance is for n = {instance_n}, clique has n = {}",
                self.n
            )));
        }
        Ok(())
    }

    /// Solves the Information Distribution Task deterministically in at
    /// most 16 rounds (Theorem 3.7).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInstance`] if the instance is not for
    /// this clique size, plus any simulation/verification error.
    pub fn route(&self, instance: &RoutingInstance) -> Result<RouteOutcome, CoreError> {
        self.check(instance.n())?;
        route_deterministic(instance)
    }

    /// As [`CongestedClique::route`], with the 12-round, `O(n log n)`-work
    /// variant of Theorem 5.4.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::route`].
    pub fn route_optimized(&self, instance: &RoutingInstance) -> Result<RouteOutcome, CoreError> {
        self.check(instance.n())?;
        route_optimized(instance)
    }

    /// Sorts per-node key batches in 33 rounds (Algorithm 4 with Theorem
    /// 5.4's router in Step 6; the paper states 37 with Theorem 3.7); node
    /// `i` ends with the `i`-th batch of the global order.
    ///
    /// # Errors
    ///
    /// Rejects oversized inputs and the reserved key `u64::MAX`.
    pub fn sort(&self, keys: &[Vec<u64>]) -> Result<SortOutcome, CoreError> {
        self.check(keys.len())?;
        sort_keys(keys)
    }

    /// Corollary 4.6: duplicate-aware global indices for every input key,
    /// delivered back to its origin, in a constant number of rounds.
    ///
    /// # Errors
    ///
    /// See [`CongestedClique::sort`].
    pub fn global_indices(&self, keys: &[Vec<u64>]) -> Result<IndexOutcome, CoreError> {
        self.check(keys.len())?;
        global_indices(keys)
    }

    /// Selection: the key of global rank `rank`, known to every node
    /// after 34 rounds.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ranks.
    pub fn select(&self, keys: &[Vec<u64>], rank: u64) -> Result<SelectOutcome, CoreError> {
        self.check(keys.len())?;
        select_rank(keys, rank)
    }

    /// Mode: the most frequent key and its multiplicity, after 34 rounds.
    ///
    /// # Errors
    ///
    /// Rejects empty inputs.
    pub fn mode(&self, keys: &[Vec<u64>]) -> Result<ModeOutcome, CoreError> {
        self.check(keys.len())?;
        mode_query(keys)
    }

    /// §6.3: exact multiplicities (and per-node prefix counts) of
    /// `key_bits`-bit keys in two rounds of 1–2-bit messages.
    ///
    /// # Errors
    ///
    /// Rejects instances needing more than `n` block nodes.
    pub fn small_key_census(
        &self,
        keys: &[Vec<u64>],
        key_bits: u32,
    ) -> Result<SmallKeyOutcome, CoreError> {
        self.check(keys.len())?;
        small_key_census(keys, key_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_routes() {
        let clique = CongestedClique::new(9).unwrap();
        let inst = RoutingInstance::from_demands(9, |_, _| 1).unwrap();
        assert!(clique.route(&inst).unwrap().metrics.comm_rounds() <= 16);
        assert!(clique.route_optimized(&inst).unwrap().metrics.comm_rounds() <= 12);
    }

    #[test]
    fn facade_sorts_and_queries() {
        let clique = CongestedClique::new(9).unwrap();
        let keys: Vec<Vec<u64>> = (0..9)
            .map(|i| (0..9).map(|j| ((i * 5 + j) % 13) as u64).collect())
            .collect();
        assert_eq!(
            clique.sort(&keys).unwrap().metrics.comm_rounds(),
            u64::from(crate::sorting::FullSortMachine::ROUNDS)
        );
        assert!(clique.select(&keys, 40).is_ok());
        assert!(clique.mode(&keys).is_ok());
    }

    #[test]
    fn rejects_mismatched_instance() {
        let clique = CongestedClique::new(9).unwrap();
        let inst = RoutingInstance::from_demands(4, |_, _| 1).unwrap();
        assert!(clique.route(&inst).is_err());
        assert!(clique.sort(&vec![vec![]; 4]).is_err());
    }

    #[test]
    fn rejects_empty_clique() {
        assert!(CongestedClique::new(0).is_err());
    }
}

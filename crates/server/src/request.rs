use cc_core::routing::RoutingInstance;
use cc_core::{CliqueService, CoreError, Outcome};

/// What one request resolves to: the unified [`Outcome`] on success, the
/// exact [`CoreError`] a direct [`CliqueService`] call would raise on
/// failure. This is the value that travels back over a reply channel;
/// server-side failures (overload, shutdown) are layered on top as
/// [`ServerError`](crate::ServerError) by the handle.
pub type QueryResult = Result<Outcome, CoreError>;

/// A typed query — one variant per [`CliqueService`] entry point.
///
/// A request owns its payload (instance or key batches), so it can cross
/// thread boundaries into a shard worker; it also knows its clique size
/// ([`Request::n`]), which is the server's shard key — same-`n` requests
/// are always served by the same shard, on the same warm session fleet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// [`CliqueService::route`] — Theorem 3.7, ≤ 16 rounds.
    Route(RoutingInstance),
    /// [`CliqueService::route_optimized`] — Theorem 5.4, ≤ 12 rounds.
    RouteOptimized(RoutingInstance),
    /// [`CliqueService::sort`] — 33 rounds: Algorithm 4 with Theorem 5.4's
    /// router in Step 6; the paper states 37 with Theorem 3.7.
    Sort(Vec<Vec<u64>>),
    /// [`CliqueService::global_indices`] — Corollary 4.6.
    GlobalIndices(Vec<Vec<u64>>),
    /// [`CliqueService::select`] — constant-round rank selection.
    Select {
        /// Per-node key batches (`keys.len()` is the clique size).
        keys: Vec<Vec<u64>>,
        /// Global rank to select (0-based).
        rank: u64,
    },
    /// [`CliqueService::mode`] — most frequent key value.
    Mode(Vec<Vec<u64>>),
    /// [`CliqueService::small_key_census`] — §6.3, 1–2-bit messages.
    SmallKeyCensus {
        /// Per-node key batches (`keys.len()` is the clique size).
        keys: Vec<Vec<u64>>,
        /// Key domain width in bits.
        key_bits: u32,
    },
}

impl Request {
    /// The clique size this request targets — the shard key. (`0` is
    /// representable and rejected at serve time with the same error a
    /// direct facade call raises.)
    pub fn n(&self) -> usize {
        match self {
            Request::Route(inst) | Request::RouteOptimized(inst) => inst.n(),
            Request::Sort(keys)
            | Request::GlobalIndices(keys)
            | Request::Mode(keys)
            | Request::Select { keys, .. }
            | Request::SmallKeyCensus { keys, .. } => keys.len(),
        }
    }

    /// Serves this request on `service` — the single dispatch point both
    /// the shard workers and the sequential parity references go through,
    /// so "server answer == direct service answer" is a comparison of two
    /// calls to *this* function.
    ///
    /// # Errors
    ///
    /// Exactly those of the corresponding [`CliqueService`] method.
    pub fn serve_on(&self, service: &mut CliqueService) -> QueryResult {
        match self {
            Request::Route(inst) => service.route(inst).map(Outcome::Route),
            Request::RouteOptimized(inst) => service.route_optimized(inst).map(Outcome::Route),
            Request::Sort(keys) => service.sort(keys).map(Outcome::Sort),
            Request::GlobalIndices(keys) => service.global_indices(keys).map(Outcome::Indices),
            Request::Select { keys, rank } => service.select(keys, *rank).map(Outcome::Select),
            Request::Mode(keys) => service.mode(keys).map(Outcome::Mode),
            Request::SmallKeyCensus { keys, key_bits } => service
                .small_key_census(keys, *key_bits)
                .map(Outcome::SmallKeys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_matches_the_payload() {
        let inst = RoutingInstance::from_demands(6, |_, _| 1).unwrap();
        assert_eq!(Request::Route(inst.clone()).n(), 6);
        assert_eq!(Request::RouteOptimized(inst).n(), 6);
        assert_eq!(Request::Sort(vec![vec![1]; 4]).n(), 4);
        assert_eq!(
            Request::Select {
                keys: vec![vec![1]; 5],
                rank: 0
            }
            .n(),
            5
        );
        assert_eq!(
            Request::SmallKeyCensus {
                keys: Vec::new(),
                key_bits: 1
            }
            .n(),
            0
        );
    }

    #[test]
    fn serve_on_dispatches_every_entry_point() {
        let n = 9;
        let mut service = CliqueService::new(n).unwrap();
        let inst = RoutingInstance::from_demands(n, |_, _| 1).unwrap();
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 3 + j) % 7) as u64).collect())
            .collect();
        let requests = [
            Request::Route(inst.clone()),
            Request::RouteOptimized(inst),
            Request::Sort(keys.clone()),
            Request::GlobalIndices(keys.clone()),
            Request::Select {
                keys: keys.clone(),
                rank: 11,
            },
            Request::Mode(keys.clone()),
        ];
        for request in &requests {
            let outcome = request.serve_on(&mut service).unwrap();
            assert!(outcome.metrics().comm_rounds() > 0);
        }
        assert_eq!(service.stats().completed(), requests.len() as u64);

        // Error paths flow through unchanged: the census domain check
        // (2 values × ⌈log₂ 10⌉² block nodes > 9) fails identically here
        // and on a direct facade call.
        let census = Request::SmallKeyCensus {
            keys: keys.clone(),
            key_bits: 1,
        };
        let direct = CliqueService::new(n)
            .unwrap()
            .small_key_census(&keys, 1)
            .unwrap_err();
        assert_eq!(census.serve_on(&mut service).unwrap_err(), direct);
    }
}

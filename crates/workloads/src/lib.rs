//! # cc-workloads — instance generators for the experiments
//!
//! Routing workloads (Problem 3.1) and key distributions (Problem 4.1)
//! used by the test suite, the experiment tables and `ccbench`. All
//! generators are deterministic in their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cc_core::routing::RoutingInstance;
use cc_core::CoreError;
use cc_rand::DetRng;

/// A fully loaded, perfectly balanced random instance: the demand matrix
/// is a sum of `n` random permutation matrices, so every node sends and
/// receives exactly `n` messages (the canonical Problem 3.1 shape).
///
/// # Errors
///
/// Never fails for `n ≥ 1`; the signature matches the other generators.
pub fn balanced_random(n: usize, seed: u64) -> Result<RoutingInstance, CoreError> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut demands = vec![0u32; n * n];
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..n {
        rng.shuffle(&mut perm);
        for (i, &j) in perm.iter().enumerate() {
            demands[i * n + j] += 1;
        }
    }
    RoutingInstance::from_demands(n, |i, j| demands[i * n + j])
}

/// The identity-shifted permutation workload: node `i` sends one message
/// to `(i + shift) mod n` — the lightest possible full-coverage load.
///
/// # Errors
///
/// Never fails for `n ≥ 1`.
pub fn permutation(n: usize, shift: usize) -> Result<RoutingInstance, CoreError> {
    RoutingInstance::from_demands(n, |i, j| u32::from((i + shift) % n == j))
}

/// The cyclic worst case for direct routing: all `n` messages of node `i`
/// target node `i+1`.
///
/// # Errors
///
/// Never fails for `n ≥ 1`.
pub fn cyclic_skew(n: usize) -> Result<RoutingInstance, CoreError> {
    RoutingInstance::from_demands(n, |i, j| if (i + 1) % n == j { n as u32 } else { 0 })
}

/// Block-local traffic: node `i` spreads its messages over its own
/// `√n`-block — stresses the within-set machinery.
///
/// # Errors
///
/// Never fails for `n ≥ 1`.
pub fn block_skew(n: usize) -> Result<RoutingInstance, CoreError> {
    let s = cc_sim::util::isqrt(n).max(1);
    RoutingInstance::from_demands(n, |i, j| {
        if i / s == j / s {
            (n / s.min(n)) as u32
        } else {
            0
        }
    })
}

/// A sparse random instance: each node sends `load ≤ n` messages to
/// uniformly random distinct-ish destinations, with receive caps enforced
/// by rejection.
///
/// # Errors
///
/// Never fails for `n ≥ 1` and `load ≤ n`.
pub fn sparse_random(n: usize, load: usize, seed: u64) -> Result<RoutingInstance, CoreError> {
    assert!(load <= n, "load must be at most n");
    let mut rng = DetRng::seed_from_u64(seed);
    let mut demands = vec![0u32; n * n];
    let mut receive = vec![0usize; n];
    for i in 0..n {
        let mut placed = 0;
        let mut guard = 0;
        while placed < load && guard < 64 * n {
            let j = rng.gen_range_usize(0..n);
            guard += 1;
            if receive[j] < n {
                demands[i * n + j] += 1;
                receive[j] += 1;
                placed += 1;
            }
        }
    }
    RoutingInstance::from_demands(n, |i, j| demands[i * n + j])
}

/// A Zipf-skewed demand instance: every node sends `load ≤ n` messages
/// whose destinations are drawn from a Zipf(`theta`) rank distribution
/// (destination `j` has weight `∝ 1/(j+1)^theta`, so low-numbered nodes
/// are traffic magnets), with the Problem 3.1 receive cap of `n` enforced
/// by rejection plus a deterministic spill onto the first non-full
/// receivers. Deterministic in `seed`. The canonical "skewed popularity"
/// scenario for the query server's mixed-traffic tests: hot receivers
/// saturate their cap while the tail stays sparse.
///
/// # Errors
///
/// Never fails for `n ≥ 1` and `load ≤ n`.
///
/// # Panics
///
/// Panics if `load > n` (the instance could not satisfy Problem 3.1).
pub fn zipf_demands(
    n: usize,
    load: usize,
    theta: f64,
    seed: u64,
) -> Result<RoutingInstance, CoreError> {
    assert!(load <= n, "load must be at most n");
    let mut rng = DetRng::seed_from_u64(seed);
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for j in 0..n {
        total += 1.0 / ((j + 1) as f64).powf(theta);
        cumulative.push(total);
    }
    let mut demands = vec![0u32; n * n];
    let mut receive = vec![0usize; n];
    for i in 0..n {
        let mut placed = 0;
        let mut guard = 0;
        while placed < load && guard < 64 * n {
            guard += 1;
            let target = rng.gen_range_f64(0.0..total);
            let j = cumulative.partition_point(|&c| c < target).min(n - 1);
            if receive[j] < n {
                demands[i * n + j] += 1;
                receive[j] += 1;
                placed += 1;
            }
        }
        // The hot head can fill up; spill the remainder onto the first
        // receivers with capacity (always enough: total capacity is n²,
        // total demand n·load ≤ n²).
        let mut j = 0;
        while placed < load {
            if receive[j] < n {
                demands[i * n + j] += 1;
                receive[j] += 1;
                placed += 1;
            } else {
                j += 1;
            }
        }
    }
    RoutingInstance::from_demands(n, |i, j| demands[i * n + j])
}

/// The all-to-one-block hotspot: every node sends one message to each
/// member of one `√n`-sized block, chosen deterministically from `seed` —
/// so each hot-block member receives exactly `n` messages, the Problem
/// 3.1 receive cap, while every other node receives nothing. This is the
/// heaviest admissible concentration of traffic onto a single block, the
/// regime the paper's set-to-set primitives (Corollaries 3.3/3.4) are
/// built to survive.
///
/// # Errors
///
/// Never fails for `n ≥ 1`.
pub fn hotspot(n: usize, seed: u64) -> Result<RoutingInstance, CoreError> {
    let s = cc_sim::util::isqrt(n).max(1);
    // `.max(1)` keeps n = 0 on the same path as the other generators
    // (an empty instance), instead of panicking on an empty RNG range.
    let blocks = n.div_ceil(s).max(1);
    let mut rng = DetRng::seed_from_u64(seed);
    let hot = rng.gen_range_usize(0..blocks);
    let lo = hot * s;
    let hi = ((hot + 1) * s).min(n);
    RoutingInstance::from_demands(n, |_, j| u32::from(j >= lo && j < hi))
}

/// The seven serving entry points, for weighting a [`RequestMix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryPoint {
    /// `Request::Route` — Theorem 3.7 routing.
    Route,
    /// `Request::RouteOptimized` — Theorem 5.4 routing.
    RouteOptimized,
    /// `Request::Sort` — Theorem 4.5 sorting.
    Sort,
    /// `Request::GlobalIndices` — Corollary 4.6 indexing.
    GlobalIndices,
    /// `Request::Select` — constant-round rank selection.
    Select,
    /// `Request::Mode` — most frequent key.
    Mode,
    /// `Request::SmallKeyCensus` — §6.3 census.
    SmallKeyCensus,
}

/// All entry points, in weight-array order.
pub const ENTRY_POINTS: [EntryPoint; 7] = [
    EntryPoint::Route,
    EntryPoint::RouteOptimized,
    EntryPoint::Sort,
    EntryPoint::GlobalIndices,
    EntryPoint::Select,
    EntryPoint::Mode,
    EntryPoint::SmallKeyCensus,
];

/// A seeded traffic generator over the query-serving surface: a stream of
/// [`Request`](cc_server::Request)s with configurable weights over all
/// seven entry points and a Zipf rank distribution over the configured
/// clique sizes (the first size is the hottest) — the canonical
/// mixed-traffic shape shared by the `net_swarm` example, the wire
/// tests and the timing gates in `tests/perf_gates.rs`.
///
/// Payloads are drawn deterministically from the seed via the sibling
/// generators ([`balanced_random`], [`uniform_keys`], [`zipf_keys`],
/// [`duplicate_keys`]), so the same `(mix, count, seed)` triple always
/// yields the same requests — on any host, in any process, which is what
/// lets a network client and an in-process reference generate identical
/// traffic independently.
///
/// Note on the census: `SmallKeyCensus` requests are generated with
/// `key_bits = 1`, which the service accepts only when the key domain
/// fits the clique (`2·⌈log₂(n+1)⌉² ≤ n`, so n ≳ 128). On smaller
/// cliques they are served as deterministic query errors — deliberate
/// mid-stream error traffic for parity testing; give the entry point
/// weight 0 for always-successful mixes.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestMix {
    sizes: Vec<usize>,
    theta: f64,
    weights: [u32; 7],
}

impl RequestMix {
    /// A mix over `sizes` with every entry point equally weighted and a
    /// Zipf exponent of 1.0 over the size ranks.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty.
    pub fn new(sizes: impl Into<Vec<usize>>) -> Self {
        let sizes = sizes.into();
        assert!(!sizes.is_empty(), "at least one clique size required");
        RequestMix {
            sizes,
            theta: 1.0,
            weights: [1; 7],
        }
    }

    /// Sets one entry point's weight (relative to the other six).
    #[must_use]
    pub fn with_weight(mut self, entry: EntryPoint, weight: u32) -> Self {
        let index = ENTRY_POINTS
            .iter()
            .position(|&e| e == entry)
            .expect("entry point is in ENTRY_POINTS");
        self.weights[index] = weight;
        self
    }

    /// Replaces all seven weights at once, in [`ENTRY_POINTS`] order.
    #[must_use]
    pub fn with_weights(mut self, weights: [u32; 7]) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the Zipf exponent over the size ranks (`0.0` is uniform;
    /// larger skews harder toward the first configured size).
    #[must_use]
    pub fn with_zipf_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Generates `count` requests, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<cc_server::Request> {
        use cc_server::Request;
        let total: u64 = self.weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "at least one entry point needs positive weight");
        let mut cumulative = Vec::with_capacity(self.sizes.len());
        let mut zipf_total = 0.0f64;
        for rank in 0..self.sizes.len() {
            zipf_total += 1.0 / ((rank + 1) as f64).powf(self.theta);
            cumulative.push(zipf_total);
        }
        let mut rng = DetRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let target = rng.gen_range_f64(0.0..zipf_total);
                let rank = cumulative
                    .partition_point(|&c| c < target)
                    .min(self.sizes.len() - 1);
                let n = self.sizes[rank];
                let mut pick = rng.gen_range_u64(0..total);
                let mut entry = EntryPoint::Route;
                for (&e, &w) in ENTRY_POINTS.iter().zip(&self.weights) {
                    if pick < u64::from(w) {
                        entry = e;
                        break;
                    }
                    pick -= u64::from(w);
                }
                let payload_seed = rng.next_u64();
                match entry {
                    EntryPoint::Route => {
                        Request::Route(balanced_random(n, payload_seed).expect("balanced instance"))
                    }
                    EntryPoint::RouteOptimized => Request::RouteOptimized(
                        balanced_random(n, payload_seed).expect("balanced instance"),
                    ),
                    EntryPoint::Sort => Request::Sort(uniform_keys(n, payload_seed)),
                    EntryPoint::GlobalIndices => {
                        Request::GlobalIndices(zipf_keys(n, (4 * n.max(1)) as u64, payload_seed))
                    }
                    EntryPoint::Select => Request::Select {
                        keys: uniform_keys(n, payload_seed),
                        rank: rng.gen_range_u64(0..((n * n) as u64).max(1)),
                    },
                    EntryPoint::Mode => {
                        Request::Mode(duplicate_keys(n, (n as u64 / 2).max(2), payload_seed))
                    }
                    EntryPoint::SmallKeyCensus => Request::SmallKeyCensus {
                        keys: duplicate_keys(n, 2, payload_seed),
                        key_bits: 1,
                    },
                }
            })
            .collect()
    }
}

/// Uniform random keys, `n` per node.
pub fn uniform_keys(n: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..n).map(|_| rng.gen_range_u64(0..u64::MAX - 1)).collect())
        .collect()
}

/// Globally pre-sorted keys (node `i` already holds its final batch).
pub fn sorted_keys(n: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|i| (0..n).map(|j| (i * n + j) as u64).collect())
        .collect()
}

/// Globally reverse-sorted keys.
pub fn reverse_keys(n: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|i| (0..n).map(|j| (n * n - i * n - j) as u64).collect())
        .collect()
}

/// Heavy duplication: only `distinct` different values exist.
pub fn duplicate_keys(n: usize, distinct: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..n)
                .map(|_| rng.gen_range_u64(0..distinct.max(1)))
                .collect()
        })
        .collect()
}

/// Zipf-flavoured skewed values (rank `r` drawn with weight `∝ 1/(r+1)`).
pub fn zipf_keys(n: usize, universe: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = DetRng::seed_from_u64(seed);
    let harmonic: f64 = (1..=universe).map(|r| 1.0 / r as f64).sum();
    (0..n)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let target = rng.gen_range_f64(0.0..harmonic);
                    let mut acc = 0.0;
                    for r in 1..=universe {
                        acc += 1.0 / r as f64;
                        if acc >= target {
                            return r - 1;
                        }
                    }
                    universe - 1
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_random_is_fully_loaded() {
        let inst = balanced_random(12, 5).unwrap();
        for v in 0..12 {
            assert_eq!(inst.sends(v).len(), 12);
        }
        let recv = inst.expected_receives();
        assert!(recv.iter().all(|r| r.len() == 12));
    }

    #[test]
    fn generators_validate() {
        assert!(permutation(7, 3).is_ok());
        assert!(cyclic_skew(9).is_ok());
        assert!(block_skew(16).is_ok());
        assert!(sparse_random(10, 4, 1).is_ok());
    }

    /// Both new demand generators must respect Problem 3.1: every node
    /// sends at most `n` messages (row sums) and receives at most `n`
    /// (column sums) — `RoutingInstance` validation enforces it, and the
    /// shapes are asserted explicitly here.
    #[test]
    fn zipf_demands_respects_problem_31_bounds_and_skews() {
        let (n, load) = (24, 8);
        let inst = zipf_demands(n, load, 1.2, 7).unwrap();
        for v in 0..n {
            assert_eq!(inst.sends(v).len(), load, "row sum of node {v}");
        }
        let recv = inst.expected_receives();
        assert!(recv.iter().all(|r| r.len() <= n), "column sums ≤ n");
        assert_eq!(recv.iter().map(Vec::len).sum::<usize>(), n * load);
        // The point of the generator: the head is hot, the tail sparse.
        let hottest = recv.iter().map(Vec::len).max().unwrap();
        let coldest = recv.iter().map(Vec::len).min().unwrap();
        assert!(
            hottest >= 2 * load && coldest < load,
            "expected skew, got max {hottest} / min {coldest} (mean {load})"
        );
        // Full load saturates every receiver exactly at the cap.
        let full = zipf_demands(12, 12, 1.5, 3).unwrap();
        let full_recv = full.expected_receives();
        assert!(full_recv.iter().all(|r| r.len() == 12));
    }

    #[test]
    fn hotspot_saturates_one_block_at_the_receive_cap() {
        let n = 20; // s = 4, 5 blocks
        let inst = hotspot(n, 11).unwrap();
        let s = cc_sim::util::isqrt(n);
        for v in 0..n {
            assert_eq!(inst.sends(v).len(), s, "row sum of node {v}");
        }
        let recv = inst.expected_receives();
        let hot: Vec<usize> = (0..n).filter(|&v| !recv[v].is_empty()).collect();
        assert_eq!(hot.len(), s, "exactly one block is hot");
        assert!(
            hot.windows(2).all(|w| w[1] == w[0] + 1),
            "block is contiguous"
        );
        assert_eq!(hot[0] % s, 0, "block-aligned");
        for &v in &hot {
            assert_eq!(recv[v].len(), n, "hot member at the receive cap");
        }
        // Some seed moves the hotspot (5 blocks, so seeds can't all agree).
        let moved = (0..16).any(|seed| hotspot(n, seed).unwrap() != inst);
        assert!(moved, "hot block never moved across 16 seeds");
    }

    #[test]
    fn new_generators_accept_the_empty_clique() {
        // Same contract as the siblings: n = 0 is an empty instance, not
        // a panic.
        assert_eq!(hotspot(0, 3).unwrap().total_messages(), 0);
        assert_eq!(zipf_demands(0, 0, 1.0, 3).unwrap().total_messages(), 0);
    }

    #[test]
    fn new_generators_deterministic_in_seed() {
        assert_eq!(
            zipf_demands(16, 6, 1.1, 9).unwrap(),
            zipf_demands(16, 6, 1.1, 9).unwrap()
        );
        assert_ne!(
            zipf_demands(16, 6, 1.1, 9).unwrap(),
            zipf_demands(16, 6, 1.1, 10).unwrap()
        );
        assert_eq!(hotspot(20, 4).unwrap(), hotspot(20, 4).unwrap());
    }

    #[test]
    fn request_mix_is_deterministic_and_respects_weights() {
        let mix = RequestMix::new(vec![8usize, 12, 16]).with_zipf_theta(1.2);
        let a = mix.generate(48, 7);
        let b = mix.generate(48, 7);
        assert_eq!(a, b);
        assert_ne!(a, mix.generate(48, 8));
        assert_eq!(a.len(), 48);
        // Every size is one of the configured ones.
        assert!(a.iter().all(|r| [8, 12, 16].contains(&r.n())));
        // Equal weights over 48 draws: all seven entry points appear.
        let kinds: std::collections::HashSet<_> = a.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 7);

        // Zero-weighted entry points never appear.
        let sorts_only = RequestMix::new(vec![8usize])
            .with_weights([0, 0, 1, 0, 0, 0, 0])
            .generate(16, 3);
        assert!(sorts_only
            .iter()
            .all(|r| matches!(r, cc_server::Request::Sort(_))));

        // Zipf over sizes: the first configured size is the hottest.
        let firsts = a.iter().filter(|r| r.n() == 8).count();
        let lasts = a.iter().filter(|r| r.n() == 16).count();
        assert!(firsts > lasts, "zipf head {firsts} vs tail {lasts}");
    }

    #[test]
    fn request_mix_payloads_are_servable() {
        // Every generated request (census excluded — see the type docs)
        // serves successfully on a direct service.
        let requests = RequestMix::new(vec![9usize])
            .with_weight(EntryPoint::SmallKeyCensus, 0)
            .generate(14, 5);
        let mut service = cc_core::CliqueService::new(9).unwrap();
        for request in &requests {
            request
                .serve_on(&mut service)
                .unwrap_or_else(|e| panic!("{request:?}: {e}"));
        }
        // And the census variant errors deterministically on a small
        // clique — the documented mid-stream error traffic.
        let census = RequestMix::new(vec![9usize])
            .with_weights([0, 0, 0, 0, 0, 0, 1])
            .generate(2, 5);
        for request in &census {
            let a = request.serve_on(&mut service).unwrap_err();
            let b = request.serve_on(&mut service).unwrap_err();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn key_generators_shape() {
        for keys in [
            uniform_keys(8, 3),
            sorted_keys(8),
            reverse_keys(8),
            duplicate_keys(8, 3, 1),
            zipf_keys(8, 50, 2),
        ] {
            assert_eq!(keys.len(), 8);
            assert!(keys.iter().all(|l| l.len() == 8));
            assert!(keys.iter().flatten().all(|&k| k < u64::MAX));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(uniform_keys(6, 9), uniform_keys(6, 9));
        assert_eq!(
            balanced_random(6, 9).unwrap(),
            balanced_random(6, 9).unwrap()
        );
    }
}

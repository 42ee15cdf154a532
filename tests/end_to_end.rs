//! Cross-crate integration tests: the full paper pipeline exercised
//! through the facade, with all contenders on shared workloads.

use congested_clique::baselines;
use congested_clique::core::routing::{route_deterministic, route_optimized};
use congested_clique::core::sorting::{sort_keys, FullSortMachine};
use congested_clique::{workloads, CongestedClique};

#[test]
fn routing_all_algorithms_agree_on_deliveries() {
    let n = 25;
    let inst = workloads::balanced_random(n, 77).unwrap();
    let det = route_deterministic(&inst).unwrap();
    let opt = route_optimized(&inst).unwrap();
    let rnd = baselines::route_randomized(&inst, 5).unwrap();
    // All three verified internally; deliveries must be identical multisets.
    assert_eq!(det.delivered, opt.delivered);
    assert_eq!(det.delivered, rnd.delivered);
    assert_eq!(det.metrics.comm_rounds(), 16);
    assert_eq!(opt.metrics.comm_rounds(), 12);
}

#[test]
fn round_bounds_hold_across_sizes_and_workloads() {
    for n in [9usize, 12, 16, 20, 30] {
        for inst in [
            workloads::balanced_random(n, 3).unwrap(),
            workloads::cyclic_skew(n).unwrap(),
            workloads::permutation(n, 1).unwrap(),
        ] {
            let det = route_deterministic(&inst).unwrap();
            assert!(det.metrics.comm_rounds() <= 16, "n={n}");
            let opt = route_optimized(&inst).unwrap();
            assert!(opt.metrics.comm_rounds() <= 12, "n={n}");
        }
    }
}

#[test]
fn sorting_matches_std_sort_on_every_distribution() {
    let n = 16;
    for keys in [
        workloads::uniform_keys(n, 4),
        workloads::sorted_keys(n),
        workloads::reverse_keys(n),
        workloads::duplicate_keys(n, 3, 4),
        workloads::zipf_keys(n, 100, 4),
    ] {
        let out = sort_keys(&keys).unwrap(); // internally verified
        assert_eq!(
            out.metrics.comm_rounds(),
            u64::from(FullSortMachine::ROUNDS)
        );
        let flat: Vec<u64> = out.batches.iter().flatten().map(|k| k.key).collect();
        let mut expected: Vec<u64> = keys.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(flat, expected);
    }
}

#[test]
fn facade_selection_agrees_with_sort() {
    let n = 16;
    let clique = CongestedClique::new(n).unwrap();
    let keys = workloads::uniform_keys(n, 8);
    let mut all: Vec<u64> = keys.iter().flatten().copied().collect();
    all.sort_unstable();
    for rank in [0u64, 17, (all.len() / 2) as u64, (all.len() - 1) as u64] {
        let sel = clique.select(&keys, rank).unwrap();
        assert_eq!(sel.key, all[rank as usize], "rank {rank}");
    }
}

#[test]
fn mode_and_census_agree() {
    // For 1-bit keys, the §6.3 census and the sorting-based mode must
    // find the same multiplicities.
    let n = 128;
    let keys: Vec<Vec<u64>> = (0..n).map(|v| vec![(v % 2) as u64; (v * 3) % n]).collect();
    let clique = CongestedClique::new(n).unwrap();
    let census = clique.small_key_census(&keys, 1).unwrap();
    let mode = clique.mode(&keys).unwrap();
    assert_eq!(census.totals[mode.key as usize], mode.count);
    assert_eq!(census.metrics.comm_rounds(), 2);
}

#[test]
fn deterministic_runs_are_bit_identical() {
    let n = 16;
    let inst = workloads::balanced_random(n, 9).unwrap();
    let a = route_deterministic(&inst).unwrap();
    let b = route_deterministic(&inst).unwrap();
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.metrics.total_bits(), b.metrics.total_bits());
    assert_eq!(a.metrics.max_edge_bits(), b.metrics.max_edge_bits());
}

#[test]
fn per_edge_budget_is_logarithmic() {
    // The max observed edge load must stay within the declared
    // constant × ⌈log₂ n⌉ budget as n grows.
    for n in [16usize, 36, 64, 100] {
        let inst = workloads::balanced_random(n, 1).unwrap();
        let out = route_deterministic(&inst).unwrap();
        let word = congested_clique::sim::util::word_bits(n);
        assert!(
            out.metrics.max_edge_bits() <= 64 * word,
            "n={n}: {} bits vs budget {}",
            out.metrics.max_edge_bits(),
            64 * word
        );
    }
}

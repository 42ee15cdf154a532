//! Randomized-but-deterministic property tests across the workspace:
//! routing delivers every valid instance, sorting agrees with the standard
//! library, and the balance invariants of the paper's lemmas hold on
//! random inputs.
//!
//! The cases are driven by seeded [`cc_rand::DetRng`] loops (the workspace
//! is dependency-free, so there is no proptest shrinker); every failure
//! reproduces from its printed case number.

use cc_rand::DetRng;
use congested_clique::core::routing::{route_deterministic, route_optimized, RoutingInstance};
use congested_clique::core::sorting::{sort_keys, FullSortMachine};

#[test]
fn routing_delivers_arbitrary_valid_instances() {
    for case in 0..24u64 {
        let mut rng = DetRng::seed_from_u64(0xA11C_E500 ^ case);
        let n = rng.gen_range_usize(4..18);
        let seed = rng.next_u64();
        let cells = {
            let mut state = seed | 1;
            let mut cells = vec![0u32; n * n];
            let mut recv = vec![0u32; n];
            for i in 0..n {
                let mut sent = 0;
                while sent < n {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let j = (state >> 33) as usize % n;
                    if recv[j] < n as u32 {
                        cells[i * n + j] += 1;
                        recv[j] += 1;
                        sent += 1;
                    } else if recv.iter().all(|&r| r >= n as u32) {
                        break;
                    }
                }
            }
            cells
        };
        let inst = RoutingInstance::from_demands(n, |i, j| cells[i * n + j]).unwrap();
        // Both routers verify deliveries internally.
        let det = route_deterministic(&inst).unwrap();
        assert!(det.metrics.comm_rounds() <= 16, "case {case}: n={n}");
        let opt = route_optimized(&inst).unwrap();
        assert!(opt.metrics.comm_rounds() <= 12, "case {case}: n={n}");
    }
}

#[test]
fn routing_handles_sparse_random_demands() {
    for case in 0..24u64 {
        let mut rng = DetRng::seed_from_u64(0x5AA5_0FF1 ^ case);
        let n = rng.gen_range_usize(4..14);
        let cells: Vec<u32> = (0..14 * 14)
            .map(|_| rng.gen_range_u64(0..2) as u32)
            .collect();
        let mut demands = vec![0u32; n * n];
        let mut recv = vec![0u32; n];
        let mut sent = vec![0u32; n];
        for i in 0..n {
            for j in 0..n {
                if cells[(i * n + j) % cells.len()] > 0 && recv[j] < n as u32 && sent[i] < n as u32
                {
                    demands[i * n + j] = 1;
                    recv[j] += 1;
                    sent[i] += 1;
                }
            }
        }
        let inst = RoutingInstance::from_demands(n, |i, j| demands[i * n + j]).unwrap();
        let det = route_deterministic(&inst).unwrap();
        assert!(det.metrics.comm_rounds() <= 16, "case {case}: n={n}");
    }
}

#[test]
fn sorting_agrees_with_std() {
    for case in 0..24u64 {
        let mut rng = DetRng::seed_from_u64(0x50_0071 ^ case);
        let n = rng.gen_range_usize(4..14);
        let universe = rng.gen_range_u64(1..1000);
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| rng.gen_range_u64(0..universe.max(1)))
                    .collect()
            })
            .collect();
        let out = sort_keys(&keys).unwrap();
        assert_eq!(
            out.metrics.comm_rounds(),
            u64::from(FullSortMachine::ROUNDS),
            "case {case}: n={n}"
        );
        let flat: Vec<u64> = out.batches.iter().flatten().map(|k| k.key).collect();
        let mut expected: Vec<u64> = keys.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(flat, expected, "case {case}: n={n}");
    }
}

#[test]
fn sorting_handles_ragged_inputs() {
    for case in 0..24u64 {
        let mut rng = DetRng::seed_from_u64(0xFA66ED ^ case);
        let n = rng.gen_range_usize(4..12);
        let lens: Vec<usize> = (0..12).map(|_| rng.gen_range_usize(0..12)).collect();
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                (0..lens[i % lens.len()].min(n))
                    .map(|j| ((i * 31 + j * 7) % 50) as u64)
                    .collect()
            })
            .collect();
        let out = sort_keys(&keys).unwrap();
        let flat: Vec<u64> = out.batches.iter().flatten().map(|k| k.key).collect();
        let mut expected: Vec<u64> = keys.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(flat, expected, "case {case}: n={n}");
    }
}

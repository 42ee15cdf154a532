//! Coverage for the paper's §6 extensions and the facade surface.

use cc_core::routing::{route_large_messages, LargeMessage};
use cc_core::sorting::{small_key_census, FullSortMachine};
use cc_core::CongestedClique;
use cc_sim::NodeId;

#[test]
fn large_messages_scale_rounds_with_width() {
    // §6.1: rounds grow linearly in the payload width.
    let n = 9;
    let mk = |words: usize| -> Vec<Vec<LargeMessage>> {
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        LargeMessage::new(
                            NodeId::new(i),
                            NodeId::new(j),
                            0,
                            vec![(i * n + j) as u64; words],
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let r1 = route_large_messages(n, mk(1)).unwrap().total_rounds;
    let r3 = route_large_messages(n, mk(3)).unwrap().total_rounds;
    assert_eq!(r3, 3 * r1);
}

#[test]
fn census_handles_full_per_node_load() {
    // Every node holds n keys — the paper's stated load.
    let n = 128;
    let keys: Vec<Vec<u64>> = (0..n).map(|v| vec![(v % 2) as u64; n]).collect();
    let out = small_key_census(&keys, 1).unwrap();
    assert_eq!(out.totals.iter().sum::<u64>(), (n * n) as u64);
    assert_eq!(out.metrics.comm_rounds(), 2);
}

#[test]
fn census_prefixes_are_monotone() {
    let n = 128;
    let keys: Vec<Vec<u64>> = (0..n).map(|v| vec![0u64; v % 7]).collect();
    let out = small_key_census(&keys, 1).unwrap();
    for kappa in 0..2 {
        let mut prev = 0;
        for v in 0..n {
            assert!(out.prefix[v][kappa] >= prev, "prefix must be monotone");
            prev = out.prefix[v][kappa];
        }
    }
}

#[test]
fn facade_full_surface_smoke() {
    let n = 16;
    let clique = CongestedClique::new(n).unwrap();
    assert_eq!(clique.n(), n);
    assert_eq!(clique.sqrt_n(), 4);

    let inst = cc_core::routing::RoutingInstance::from_demands(n, |_, _| 1).unwrap();
    assert_eq!(clique.route(&inst).unwrap().metrics.comm_rounds(), 16);
    assert_eq!(
        clique.route_optimized(&inst).unwrap().metrics.comm_rounds(),
        12
    );

    let keys: Vec<Vec<u64>> = (0..n)
        .map(|i| (0..n).map(|j| ((i * 3 + j) % 8) as u64).collect())
        .collect();
    let sorted = clique.sort(&keys).unwrap();
    assert_eq!(
        sorted.metrics.comm_rounds(),
        u64::from(FullSortMachine::ROUNDS)
    );
    let idx = clique.global_indices(&keys).unwrap();
    assert_eq!(idx.indices.len(), n);
    let sel = clique.select(&keys, 0).unwrap();
    let min = keys.iter().flatten().min().copied().unwrap();
    assert_eq!(sel.key, min);
    let mode = clique.mode(&keys).unwrap();
    assert!(mode.count >= ((n * n) / 8) as u64);
}

#[test]
fn facade_rejects_shape_mismatches() {
    let clique = CongestedClique::new(8).unwrap();
    assert!(clique.sort(&vec![vec![]; 7]).is_err());
    assert!(clique.mode(&vec![vec![]; 9]).is_err());
    assert!(clique.small_key_census(&vec![vec![]; 7], 1).is_err());
}

#[test]
fn error_display_chains() {
    let e = cc_core::CoreError::invalid("shape");
    assert!(format!("{e}").contains("shape"));
    let sim: cc_core::CoreError = cc_sim::SimError::TooManyRounds { limit: 3 }.into();
    assert!(format!("{sim}").contains("3 rounds"));
}

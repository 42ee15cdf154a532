//! Parallel-vs-sequential determinism for the paper's algorithms: the
//! Theorem 5.4 router, the Algorithm 3 subset sorter and the Theorem 4.5
//! full sorter must produce byte-identical outputs, round counts, total
//! bits and max-edge-bits under every execution mode, on seeded
//! workloads.

use congested_clique::core::routing::{route_optimized_with_spec, spec_for_optimized};
use congested_clique::core::sorting::{
    sort_with_spec, spec_for_sorting, FullSortMachine, SubsetSort, SubsetSortOutput, TaggedKey,
};
use congested_clique::primitives::{drive, NodeGroup};
use congested_clique::sim::{run_protocol, CliqueSpec, CommonScope, ExecMode, Metrics};
use congested_clique::workloads;

fn modes() -> Vec<ExecMode> {
    vec![
        ExecMode::SeedReference,
        ExecMode::Sequential,
        ExecMode::Auto,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 0 },
    ]
}

fn assert_metrics_identical(label: &str, first: &Metrics, other: &Metrics) {
    assert_eq!(first.comm_rounds(), other.comm_rounds(), "{label}: rounds");
    assert_eq!(first.total_bits(), other.total_bits(), "{label}: bits");
    assert_eq!(
        first.max_edge_bits(),
        other.max_edge_bits(),
        "{label}: max edge bits"
    );
    assert_eq!(first, other, "{label}: full metrics");
}

#[test]
fn theorem_5_4_router_is_mode_deterministic() {
    for (n, seed) in [(49usize, 11u64), (64, 42)] {
        let inst = workloads::balanced_random(n, seed).unwrap();
        let runs: Vec<_> = modes()
            .into_iter()
            .map(|mode| {
                route_optimized_with_spec(&inst, spec_for_optimized(n).with_exec(mode)).unwrap()
            })
            .collect();
        let first = &runs[0];
        assert_eq!(first.metrics.comm_rounds(), 12, "n={n}");
        for run in &runs[1..] {
            assert_eq!(first.delivered, run.delivered, "n={n} seed={seed}");
            assert_metrics_identical("router", &first.metrics, &run.metrics);
        }
    }
}

#[test]
fn theorem_4_5_sorter_is_mode_deterministic() {
    for (n, seed) in [(36usize, 5u64), (49, 7)] {
        let keys = workloads::uniform_keys(n, seed);
        let runs: Vec<_> = modes()
            .into_iter()
            .map(|mode| sort_with_spec(&keys, spec_for_sorting(n).with_exec(mode)).unwrap())
            .collect();
        let first = &runs[0];
        assert_eq!(
            first.metrics.comm_rounds(),
            u64::from(FullSortMachine::ROUNDS),
            "n={n}"
        );
        for run in &runs[1..] {
            assert_eq!(first.batches, run.batches, "n={n}");
            assert_eq!(first.offsets, run.offsets, "n={n}");
            assert_metrics_identical("sorter", &first.metrics, &run.metrics);
        }
    }
}

#[test]
fn subset_sorter_is_mode_deterministic() {
    let n = 25;
    let group = NodeGroup::contiguous(0, 5);
    let keys_of = |local: usize| -> Vec<u64> {
        (0..2 * n)
            .map(|i| ((local * 37 + i * 101) % 997) as u64)
            .collect()
    };
    let runs: Vec<(Vec<SubsetSortOutput>, Metrics)> = modes()
        .into_iter()
        .map(|mode| {
            let report = run_protocol(
                CliqueSpec::new(n)
                    .unwrap()
                    .with_budget_words(256)
                    .with_exec(mode),
                |me| {
                    if let Some(local) = group.local_index(me) {
                        let keys: Vec<TaggedKey> = keys_of(local)
                            .into_iter()
                            .enumerate()
                            .map(|(i, k)| TaggedKey::new(k, me, i as u32))
                            .collect();
                        drive(SubsetSort::member(
                            group.clone(),
                            local,
                            keys,
                            2 * n,
                            false,
                            CommonScope::new("determinism.a3", 0),
                        ))
                    } else {
                        drive(SubsetSort::relay_only(false))
                    }
                },
            )
            .unwrap();
            (report.outputs, report.metrics)
        })
        .collect();
    let (first_out, first_metrics) = &runs[0];
    for (out, metrics) in &runs[1..] {
        assert_eq!(first_out, out);
        assert_metrics_identical("subset sorter", first_metrics, metrics);
    }
    // Sanity: the members really sorted their multiset.
    let held: Vec<u64> = group
        .iter()
        .flat_map(|v| first_out[v.index()].held.iter().map(|k| k.key))
        .collect();
    let mut expected: Vec<u64> = (0..5).flat_map(keys_of).collect();
    expected.sort_unstable();
    assert_eq!(held, expected);
}

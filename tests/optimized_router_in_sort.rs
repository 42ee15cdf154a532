//! The sort's Step 6 and `global_indices`' report-back run Theorem 5.4's
//! 12-round router embedded through `OptRouterMachine::from_messages`.
//! These tests pin the two halves of that swap:
//!
//! * embedding the router under a non-zero scope tag delivers exactly
//!   what the standalone machine delivers, and the standalone
//!   `route_optimized` outcome keeps its metrics;
//! * the sort and its queries return the answers a local comparison sort
//!   gives, on the key sets the `lib_sort` benchmark workload cycles
//!   through, so only `Metrics` can differ from the 37-round schedule.

use congested_clique::core::routing::{
    route_optimized, spec_for_optimized, OptRouterMachine, RoutingInstance,
};
use congested_clique::core::sorting::{FullSortMachine, TaggedKey};
use congested_clique::sim::{run_protocol, NodeId};
use congested_clique::{workloads, CliqueService};

fn instances(n: usize) -> [(&'static str, RoutingInstance); 2] {
    [
        ("balanced", workloads::balanced_random(n, 7).unwrap()),
        ("hotspot", workloads::hotspot(n, 7).unwrap()),
    ]
}

#[test]
fn embedded_router_delivers_what_the_standalone_router_delivers() {
    // 4, 16 and 25 take the square path; 17 takes the V1/V2 split cover.
    for n in [4usize, 16, 17, 25] {
        for (name, inst) in instances(n) {
            let standalone =
                run_protocol(spec_for_optimized(n), |me| OptRouterMachine::new(&inst, me)).unwrap();
            let embedded = run_protocol(spec_for_optimized(n), |me| {
                OptRouterMachine::from_messages(n, me, inst.sends(me.index()).to_vec(), 0x60)
            })
            .unwrap();
            assert_eq!(standalone.outputs, embedded.outputs, "n={n} {name}");
            assert_eq!(standalone.metrics, embedded.metrics, "n={n} {name}");
            assert_eq!(embedded.metrics.comm_rounds(), 12, "n={n} {name}");
        }
    }
}

#[test]
fn route_optimized_outcome_is_unchanged() {
    // (n, instance, [rounds, messages, bits, max edge bits, max node
    // steps]) as measured before the router became embeddable.
    let pinned: [(usize, &str, [u64; 5]); 8] = [
        (4, "balanced", [12, 184, 2616, 34, 156]),
        (4, "hotspot", [12, 120, 1672, 17, 120]),
        (16, "balanced", [12, 2880, 65088, 63, 982]),
        (16, "hotspot", [12, 1344, 28992, 27, 712]),
        (17, "balanced", [12, 3980, 104369, 100, 1526]),
        (17, "hotspot", [12, 2212, 55086, 64, 1141]),
        (25, "balanced", [12, 7000, 187500, 93, 1833]),
        (25, "hotspot", [12, 3000, 76000, 32, 1450]),
    ];
    for (n, name, expected) in pinned {
        let inst = instances(n)
            .into_iter()
            .find(|(label, _)| *label == name)
            .map(|(_, inst)| inst)
            .unwrap();
        let outcome = route_optimized(&inst).unwrap();
        let m = &outcome.metrics;
        let got = [
            m.comm_rounds(),
            m.total_messages(),
            m.total_bits(),
            m.max_edge_bits(),
            m.max_node_steps(),
        ];
        // `route_optimized` has already verified the deliveries.
        assert_eq!(got, expected, "n={n} {name}");
    }
}

/// The three key sets the `lib_sort` workload cycles through.
fn lib_sort_keys(n: usize, seed: u64) -> [(&'static str, Vec<Vec<u64>>); 3] {
    [
        ("uniform", workloads::uniform_keys(n, seed)),
        ("zipf", workloads::zipf_keys(n, 4 * n as u64, seed)),
        (
            "duplicate",
            workloads::duplicate_keys(n, (n as u64 / 2).max(2), seed),
        ),
    ]
}

/// Every key tagged with its provenance, in global sorted order.
fn oracle_order(keys: &[Vec<u64>]) -> Vec<TaggedKey> {
    let mut all: Vec<TaggedKey> = keys
        .iter()
        .enumerate()
        .flat_map(|(v, list)| {
            list.iter()
                .enumerate()
                .map(move |(i, &k)| TaggedKey::new(k, NodeId::new(v), i as u32))
        })
        .collect();
    all.sort_unstable();
    all
}

#[test]
fn sort_and_queries_match_a_local_oracle() {
    let sort_rounds = u64::from(FullSortMachine::ROUNDS);
    for n in [16usize, 17, 25, 64] {
        let mut service = CliqueService::new(n).unwrap();
        for (name, keys) in lib_sort_keys(n, 301) {
            let label = format!("n={n} {name}");
            let order = oracle_order(&keys);
            let total = order.len() as u64;
            let q = total.div_ceil(n as u64).max(1) as usize;

            // Sort: node i holds ranks [q·i, q·(i+1)), offset q·i.
            let sorted = service.sort(&keys).unwrap();
            let mut chunks = order.chunks(q).map(<[TaggedKey]>::to_vec);
            let batches: Vec<Vec<TaggedKey>> =
                (0..n).map(|_| chunks.next().unwrap_or_default()).collect();
            let offsets: Vec<u64> = (0..n as u64).map(|i| q as u64 * i).collect();
            assert_eq!(sorted.batches, batches, "{label}");
            assert_eq!(sorted.offsets, offsets, "{label}");
            assert_eq!(sorted.total, total, "{label}");
            assert_eq!(sorted.metrics.comm_rounds(), sort_rounds, "{label}");

            // Select: the key of rank total/2.
            let rank = total / 2;
            let select = service.select(&keys, rank).unwrap();
            assert_eq!(select.key, order[rank as usize].key, "{label}");
            assert_eq!(select.metrics.comm_rounds(), sort_rounds + 1, "{label}");

            // Mode: the highest multiplicity, ties to the smallest key.
            let values: Vec<u64> = order.iter().map(|k| k.key).collect();
            let (mut mode_key, mut mode_count) = (0, 0u64);
            for run in values.chunk_by(|a, b| a == b) {
                if run.len() as u64 > mode_count {
                    (mode_key, mode_count) = (run[0], run.len() as u64);
                }
            }
            let mode = service.mode(&keys).unwrap();
            assert_eq!((mode.key, mode.count), (mode_key, mode_count), "{label}");
            assert_eq!(mode.metrics.comm_rounds(), sort_rounds + 1, "{label}");

            // Global indices: the number of distinct smaller values.
            let mut distinct = values;
            distinct.dedup();
            let expected: Vec<Vec<u64>> = keys
                .iter()
                .map(|list| {
                    list.iter()
                        .map(|k| distinct.binary_search(k).unwrap() as u64)
                        .collect()
                })
                .collect();
            let indices = service.global_indices(&keys).unwrap();
            assert_eq!(indices.indices, expected, "{label}");
            assert_eq!(
                indices.metrics.comm_rounds(),
                sort_rounds + 1 + 12,
                "{label}"
            );
        }
    }
}

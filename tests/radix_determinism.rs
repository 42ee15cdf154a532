//! The radix scatter-key engine must be observationally invisible: for
//! every service entry point, every execution mode, and both settings of
//! the radix toggle, the run report (outputs and metrics) is bit-for-bit
//! identical. This is the determinism contract that lets `CC_RADIX=off`
//! serve as a drop-in escape hatch and the comparison sort act as a live
//! oracle.
//!
//! The toggle is process-global; flipping it while other tests run is
//! safe precisely because both settings are stable sorts producing
//! identical results — which is what these tests assert.

use congested_clique::core::routing::{
    route_optimized_with_spec, route_with_spec, spec_for_optimized, spec_for_routing,
};
use congested_clique::core::sorting::{
    global_indices_with_spec, mode_query_with_spec, select_rank_with_spec,
    small_key_census_with_spec, sort_with_spec, spec_for_census, spec_for_sorting,
};
use congested_clique::sim::radix::set_radix_enabled;
use congested_clique::sim::{ExecMode, Metrics};
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

/// Runs `f` under every (exec mode, radix on/off) combination and asserts
/// every result equals the first (SeedReference with radix on).
fn assert_invariant_across_matrix<T, F>(label: &str, f: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(ExecMode) -> T,
{
    let mut first: Option<T> = None;
    for radix_on in [true, false] {
        set_radix_enabled(radix_on);
        for mode in modes() {
            let run = f(mode);
            match &first {
                None => first = Some(run),
                Some(expected) => {
                    assert_eq!(
                        *expected, run,
                        "{label}: mode {mode:?}, radix {radix_on} diverged"
                    );
                }
            }
        }
    }
    set_radix_enabled(true);
}

fn assert_metrics_identical(label: &str, first: &Metrics, other: &Metrics) {
    assert_eq!(first.comm_rounds(), other.comm_rounds(), "{label}: rounds");
    assert_eq!(first.total_bits(), other.total_bits(), "{label}: bits");
    assert_eq!(first, other, "{label}: full metrics");
}

#[test]
fn route_is_radix_invariant() {
    let n = 49;
    let inst = workloads::balanced_random(n, 11).unwrap();
    assert_invariant_across_matrix("route", |mode| {
        let out = route_with_spec(&inst, spec_for_routing(n).with_exec(mode)).unwrap();
        (out.delivered, out.metrics)
    });
}

#[test]
fn route_optimized_is_radix_invariant() {
    let n = 49;
    let inst = workloads::balanced_random(n, 42).unwrap();
    assert_invariant_across_matrix("route_optimized", |mode| {
        let out = route_optimized_with_spec(&inst, spec_for_optimized(n).with_exec(mode)).unwrap();
        (out.delivered, out.metrics)
    });
}

#[test]
fn sort_is_radix_invariant_on_uniform_and_zipf() {
    let n = 36;
    for keys in [
        workloads::uniform_keys(n, 5),
        workloads::zipf_keys(n, 64, 9),
    ] {
        let runs_metrics = std::cell::RefCell::new(Vec::new());
        assert_invariant_across_matrix("sort", |mode| {
            let out = sort_with_spec(&keys, spec_for_sorting(n).with_exec(mode)).unwrap();
            runs_metrics.borrow_mut().push(out.metrics.clone());
            (out.batches, out.offsets, out.metrics)
        });
        let metrics = runs_metrics.into_inner();
        for m in &metrics[1..] {
            assert_metrics_identical("sort", &metrics[0], m);
        }
    }
}

#[test]
fn global_indices_is_radix_invariant() {
    let n = 16;
    let keys = workloads::duplicate_keys(n, 5, 3);
    assert_invariant_across_matrix("global_indices", |mode| {
        let out = global_indices_with_spec(&keys, spec_for_sorting(n).with_exec(mode)).unwrap();
        (out.indices, out.metrics)
    });
}

#[test]
fn select_rank_is_radix_invariant() {
    let n = 16;
    let keys = workloads::uniform_keys(n, 21);
    let rank = (n * n / 3) as u64;
    assert_invariant_across_matrix("select", |mode| {
        let out = select_rank_with_spec(&keys, rank, spec_for_sorting(n).with_exec(mode)).unwrap();
        (out.key, out.metrics)
    });
}

#[test]
fn mode_query_is_radix_invariant() {
    let n = 16;
    let keys = workloads::zipf_keys(n, 8, 13);
    assert_invariant_across_matrix("mode", |mode| {
        let out = mode_query_with_spec(&keys, spec_for_sorting(n).with_exec(mode)).unwrap();
        (out.key, out.count, out.metrics)
    });
}

#[test]
fn small_key_census_is_radix_invariant() {
    let n = 128;
    let keys: Vec<Vec<u64>> = (0..n)
        .map(|v| (0..n).map(|j| ((v * 31 + j * 17) % 2) as u64).collect())
        .collect();
    assert_invariant_across_matrix("census", |mode| {
        let out = small_key_census_with_spec(&keys, 1, spec_for_census(n).with_exec(mode)).unwrap();
        (out.totals, out.prefix, out.metrics)
    });
}

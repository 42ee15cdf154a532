//! Seed → request cycle, and the sequential reference every reply is
//! compared with.

use cc_core::{CliqueService, Outcome};
use cc_rand::DetRng;
use cc_server::Request;
use cc_workloads as wl;

use crate::spec::{round_bound, Kind, Workload};

/// The fixed request cycle a workload's callers walk, generated from the
/// seed alone: same seed, same requests, on any host.
pub fn generate(w: &Workload, seed: u64) -> Vec<Request> {
    // One payload seed per slot, drawn from a stream that also depends on
    // the workload, so no two workloads share an instance.
    let salt = w
        .name
        .bytes()
        .fold(0u64, |h, b| h.rotate_left(8) ^ u64::from(b));
    let mut rng = DetRng::seed_from_u64(seed ^ salt);
    let n = w.n;
    let route = |s: u64| Request::RouteOptimized(wl::balanced_random(n, s).expect("n >= 1"));
    (0..w.cycle_len)
        .map(|slot| {
            let s = rng.next_u64();
            match w.kind {
                Kind::LibRoute | Kind::NetSmall => route(s),
                Kind::LibSort => Request::Sort(match slot % 3 {
                    0 => wl::uniform_keys(n, s),
                    1 => wl::zipf_keys(n, 4 * n as u64, s),
                    _ => wl::duplicate_keys(n, (n as u64 / 2).max(2), s),
                }),
                // One request in eight is a route. A census that queues
                // behind the other connection's route is slow too, so about
                // a quarter of the replies are slow: p50 sits 25 points
                // inside the fast mode and p90 over 10 inside the slow one.
                // (At one in four the cliff was at p50 itself.)
                Kind::NetBulk if slot % 8 == 2 => route(s),
                Kind::NetBulk => Request::SmallKeyCensus {
                    keys: wl::duplicate_keys(n, 2, s),
                    key_bits: 1,
                },
            }
        })
        .collect()
}

/// The entry point a request names, in `spec::ROUND_BOUNDS` vocabulary.
pub fn entry_point(request: &Request) -> &'static str {
    match request {
        Request::Route(_) => "route",
        Request::RouteOptimized(_) => "route_optimized",
        Request::Sort(_) => "sort",
        Request::GlobalIndices(_) => "global_indices",
        Request::Select { .. } => "select",
        Request::Mode(_) => "mode",
        Request::SmallKeyCensus { .. } => "small_key_census",
    }
}

/// Serves the cycle once, in order, on one fresh `CliqueService` — the
/// reference every warm-up and timed reply must equal bit for bit. Also
/// asserts the paper's round bound on each answer.
///
/// # Panics
///
/// Panics if a request fails or breaks its round bound: the workloads are
/// chosen so that none does, so either is a bug in the measured code.
pub fn references(cycle: &[Request]) -> Vec<Outcome> {
    let mut service = CliqueService::new(cycle[0].n()).expect("workload cliques are non-empty");
    cycle
        .iter()
        .map(|request| {
            let outcome = request
                .serve_on(&mut service)
                .unwrap_or_else(|e| panic!("reference {} failed: {e}", entry_point(request)));
            let (entry, rounds) = (entry_point(request), outcome.metrics().comm_rounds());
            assert!(
                rounds <= round_bound(entry),
                "{entry} took {rounds} rounds, above the paper's bound"
            );
            outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Kind and size of a request, without its payload.
    fn shape(request: &Request) -> (&'static str, usize, usize) {
        let items = match request {
            Request::Route(i) | Request::RouteOptimized(i) => i.total_messages(),
            Request::Sort(k)
            | Request::GlobalIndices(k)
            | Request::Mode(k)
            | Request::Select { keys: k, .. }
            | Request::SmallKeyCensus { keys: k, .. } => k.iter().map(Vec::len).sum(),
        };
        (entry_point(request), request.n(), items)
    }

    #[test]
    fn cycles_depend_on_the_seed_only_through_payloads() {
        for w in &WORKLOADS {
            // Small cliques keep this fast; the generator is size-agnostic.
            let w = Workload { n: 16, ..*w };
            let a = generate(&w, 7);
            assert_eq!(a.len(), w.cycle_len);
            assert_eq!(a, generate(&w, 7), "{}: same seed, same requests", w.name);
            let b = generate(&w, 8);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x != y),
                "{}: another seed changes every payload",
                w.name
            );
            let shapes = |c: &[Request]| c.iter().map(shape).collect::<Vec<_>>();
            assert_eq!(shapes(&a), shapes(&b), "{}: same sizes and kinds", w.name);
        }
    }

    #[test]
    fn net_bulk_is_one_eighth_routes() {
        let w = Workload {
            n: 16,
            ..*crate::spec::workload("net_bulk").unwrap()
        };
        let routes = generate(&w, 1)
            .iter()
            .filter(|r| matches!(r, Request::RouteOptimized(_)))
            .count();
        assert_eq!(routes * 8, w.cycle_len);
    }
}

//! Randomized two-phase routing, after Lenzen–Wattenhofer \[7\].

use crate::rand_exchange::{RandExchange, RxMsg};
use cc_core::routing::{RouteOutcome, RoutePayload, RoutingInstance};
use cc_core::CoreError;
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, NodeId, NodeMachine, Step};

struct RandomRouterMachine<P: RoutePayload> {
    inner: RandExchange<cc_core::routing::RoutedMessage<P>>,
}

impl<P: RoutePayload> NodeMachine for RandomRouterMachine<P> {
    type Msg = RxMsg<cc_core::routing::RoutedMessage<P>>;
    type Output = Vec<cc_core::routing::RoutedMessage<P>>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let (base, outbox) = ctx.split();
        for (dst, m) in self.inner.activate(base) {
            outbox.push((dst, m));
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        inbox: &mut Inbox<Self::Msg>,
    ) -> Step<Self::Output> {
        let msgs = inbox.take_all();
        let (base, outbox) = ctx.split();
        let (sends, out) = self.inner.on_round(base, msgs);
        for (dst, m) in sends {
            outbox.push((dst, m));
        }
        match out {
            Some(delivered) => Step::Done(delivered),
            None => Step::Continue,
        }
    }
}

/// Routes `instance` with the two-phase randomized algorithm: every
/// message takes an independently uniform random relay. The measured
/// round count is the realized `max-queue(A) + max-queue(B)` — with high
/// probability a small constant for balanced instances, roughly half the
/// deterministic algorithm's 16 (the paper's "about 2 times as fast").
///
/// # Errors
///
/// Propagates simulation and verification failures.
pub fn route_randomized<P: RoutePayload>(
    instance: &RoutingInstance<P>,
    seed: u64,
) -> Result<RouteOutcome<P>, CoreError> {
    let n = instance.n();
    let spec = CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(32)
        .with_max_rounds(4096);
    let machines = (0..n)
        .map(|v| {
            let msgs: Vec<(NodeId, cc_core::routing::RoutedMessage<P>)> = instance
                .sends(v)
                .iter()
                .map(|m| (m.dst, m.clone()))
                .collect();
            RandomRouterMachine {
                inner: RandExchange::new(n, NodeId::new(v), msgs, seed),
            }
        })
        .collect();
    let report = CliqueSession::new().run(spec, machines)?;
    let mut delivered = report.outputs;
    for d in &mut delivered {
        d.sort_unstable_by_key(|x| x.key());
    }
    instance.verify_delivery(&delivered)?;
    Ok(RouteOutcome {
        delivered,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_balanced_instance() {
        let n = 16;
        let instance = RoutingInstance::from_demands(n, |_, _| 1).unwrap();
        let out = route_randomized(&instance, 7).unwrap();
        // Uniform load: each phase needs a handful of rounds whp.
        assert!(out.metrics.comm_rounds() >= 2);
        assert!(
            out.metrics.comm_rounds() <= 16,
            "{}",
            out.metrics.comm_rounds()
        );
    }

    #[test]
    fn delivers_cyclic_worst_case() {
        let n = 16;
        let instance =
            RoutingInstance::from_demands(n, |i, j| if (i + 1) % n == j { n as u32 } else { 0 })
                .unwrap();
        let out = route_randomized(&instance, 11).unwrap();
        assert!(out.metrics.comm_rounds() <= 24);
    }

    #[test]
    fn deterministic_per_seed() {
        let n = 9;
        let instance = RoutingInstance::from_demands(n, |_, _| 1).unwrap();
        let a = route_randomized(&instance, 3)
            .unwrap()
            .metrics
            .comm_rounds();
        let b = route_randomized(&instance, 3)
            .unwrap()
            .metrics
            .comm_rounds();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_instance() {
        let n = 8;
        let instance = RoutingInstance::from_demands(n, |_, _| 0).unwrap();
        let out = route_randomized(&instance, 1).unwrap();
        // Only the pacing overlays fly.
        assert!(out.metrics.comm_rounds() <= 2);
    }
}

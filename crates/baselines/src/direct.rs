//! Strawman baselines: direct (relay-free) routing and single-collector
//! sorting. Both degrade to `Θ(n)` rounds on adversarial inputs — the
//! gap that motivates the paper's constant-round algorithms.

use cc_core::routing::{RoutePayload, RoutedMessage, RoutingInstance};
use cc_core::sorting::TaggedKey;
use cc_core::CoreError;
use cc_sim::util::word_bits;
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, Metrics, NodeId, NodeMachine, Payload, Step};

/// Outcome of a direct-routing run.
#[derive(Debug)]
pub struct DirectOutcome {
    /// Rounds taken = the maximum per-ordered-pair message multiplicity.
    pub metrics: Metrics,
}

struct DirectMachine<P> {
    queues: Vec<Vec<RoutedMessage<P>>>,
    rounds_total: u32,
    call: u32,
    delivered: Vec<RoutedMessage<P>>,
}

impl<P: RoutePayload> NodeMachine for DirectMachine<P> {
    type Msg = RoutedMessage<P>;
    type Output = Vec<RoutedMessage<P>>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for (dst, q) in self.queues.iter_mut().enumerate() {
            if let Some(m) = q.pop() {
                ctx.send(NodeId::new(dst), m);
            }
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        inbox: &mut Inbox<Self::Msg>,
    ) -> Step<Self::Output> {
        self.call += 1;
        for (_, m) in inbox.drain() {
            self.delivered.push(m);
        }
        if self.call < self.rounds_total {
            for (dst, q) in self.queues.iter_mut().enumerate() {
                if let Some(m) = q.pop() {
                    ctx.send(NodeId::new(dst), m);
                }
            }
        }
        if self.call == self.rounds_total {
            Step::Done(std::mem::take(&mut self.delivered))
        } else {
            Step::Continue
        }
    }
}

/// Routes by sending every message straight to its destination, one per
/// edge per round. Takes exactly `max_{(i,j)} |messages i→j|` rounds —
/// constant for smooth workloads, `n` for the cyclic worst case.
///
/// # Errors
///
/// Propagates simulation and verification failures.
pub fn route_direct<P: RoutePayload>(
    instance: &RoutingInstance<P>,
) -> Result<DirectOutcome, CoreError> {
    let n = instance.n();
    // The schedule length is the maximum pair multiplicity, which every
    // sender knows locally; the global max is what the run takes. For the
    // machine we give every node the global figure (a strawman needs no
    // extra fidelity).
    let mut max_pair = 1u32;
    for v in 0..n {
        let mut counts = vec![0u32; n];
        for m in instance.sends(v) {
            counts[m.dst.index()] += 1;
        }
        max_pair = max_pair.max(counts.iter().copied().max().unwrap_or(0));
    }
    let machines = (0..n)
        .map(|v| {
            let mut queues: Vec<Vec<RoutedMessage<P>>> = vec![Vec::new(); n];
            for m in instance.sends(v) {
                queues[m.dst.index()].push(m.clone());
            }
            DirectMachine {
                queues,
                rounds_total: max_pair,
                call: 0,
                delivered: Vec::new(),
            }
        })
        .collect();
    let spec = CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(16)
        .with_max_rounds(u64::from(max_pair) + 8);
    let report = CliqueSession::new().run(spec, machines)?;
    let mut delivered = report.outputs;
    for d in &mut delivered {
        d.sort_unstable_by_key(|x| x.key());
    }
    instance.verify_delivery(&delivered)?;
    Ok(DirectOutcome {
        metrics: report.metrics,
    })
}

/// Outcome of a gather-sort run.
#[derive(Debug)]
pub struct GatherOutcome {
    /// Rounds taken (`Θ(n)`).
    pub metrics: Metrics,
}

#[derive(Clone, Debug)]
enum GatherMsg {
    Up(TaggedKey),
    Down(TaggedKey),
}

impl Payload for GatherMsg {
    fn size_bits(&self, n: usize) -> u64 {
        let (GatherMsg::Up(k) | GatherMsg::Down(k)) = self;
        1 + k.size_bits(n) + word_bits(n)
    }
}

struct GatherMachine {
    n: usize,
    me: NodeId,
    up_queue: Vec<TaggedKey>,
    collected: Vec<TaggedKey>,
    down_queues: Option<Vec<Vec<TaggedKey>>>,
    received: Vec<TaggedKey>,
    call: u32,
    up_rounds: u32,
    down_rounds: u32,
}

impl NodeMachine for GatherMachine {
    type Msg = GatherMsg;
    type Output = Vec<TaggedKey>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GatherMsg>) {
        if let Some(k) = self.up_queue.pop() {
            ctx.send(NodeId::new(0), GatherMsg::Up(k));
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, GatherMsg>,
        inbox: &mut Inbox<GatherMsg>,
    ) -> Step<Self::Output> {
        self.call += 1;
        for (_, msg) in inbox.drain() {
            match msg {
                GatherMsg::Up(k) => self.collected.push(k),
                GatherMsg::Down(k) => self.received.push(k),
            }
        }
        if self.call < self.up_rounds {
            if let Some(k) = self.up_queue.pop() {
                ctx.send(NodeId::new(0), GatherMsg::Up(k));
            }
            return Step::Continue;
        }
        if self.call == self.up_rounds && self.me.index() == 0 {
            // Collector sorts and schedules the send-down.
            self.collected.sort_unstable();
            let total = self.collected.len();
            let q = total.div_ceil(self.n).max(1);
            let mut queues: Vec<Vec<TaggedKey>> = vec![Vec::new(); self.n];
            for (r, k) in self.collected.drain(..).enumerate() {
                queues[(r / q).min(self.n - 1)].push(k);
            }
            self.down_queues = Some(queues);
        }
        if self.call >= self.up_rounds && self.call < self.up_rounds + self.down_rounds {
            if let Some(queues) = &mut self.down_queues {
                for (dst, q) in queues.iter_mut().enumerate() {
                    if let Some(k) = q.pop() {
                        ctx.send(NodeId::new(dst), GatherMsg::Down(k));
                    }
                }
            }
            return Step::Continue;
        }
        if self.call == self.up_rounds + self.down_rounds {
            self.received.sort_unstable();
            return Step::Done(std::mem::take(&mut self.received));
        }
        Step::Continue
    }
}

/// Sorts by funnelling every key through node 0: `Θ(max input size)`
/// rounds up plus `Θ(n)` rounds down — the baseline that shows why
/// distributing the work matters.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sort_gather(keys: &[Vec<u64>]) -> Result<GatherOutcome, CoreError> {
    let n = keys.len();
    if n == 0 {
        return Err(CoreError::invalid("at least one node required"));
    }
    let up_rounds = keys.iter().map(Vec::len).max().unwrap_or(0).max(1) as u32;
    let total: usize = keys.iter().map(Vec::len).sum();
    let down_rounds = total.div_ceil(n).max(1) as u32;
    let machines = (0..n)
        .map(|v| GatherMachine {
            n,
            me: NodeId::new(v),
            up_queue: keys[v]
                .iter()
                .enumerate()
                .map(|(i, &k)| TaggedKey::new(k, NodeId::new(v), i as u32))
                .collect(),
            collected: Vec::new(),
            down_queues: None,
            received: Vec::new(),
            call: 0,
            up_rounds,
            down_rounds,
        })
        .collect();
    let spec = CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(16)
        .with_max_rounds(u64::from(up_rounds + down_rounds) + 8);
    let report = CliqueSession::new().run(spec, machines)?;
    Ok(GatherOutcome {
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_is_fast_on_permutations() {
        let n = 12;
        let instance = RoutingInstance::from_demands(n, |_, _| 1).unwrap();
        let out = route_direct(&instance).unwrap();
        assert_eq!(out.metrics.comm_rounds(), 1);
    }

    #[test]
    fn direct_needs_n_rounds_on_cyclic_skew() {
        let n = 12;
        let instance =
            RoutingInstance::from_demands(n, |i, j| if (i + 1) % n == j { n as u32 } else { 0 })
                .unwrap();
        let out = route_direct(&instance).unwrap();
        assert_eq!(out.metrics.comm_rounds(), n as u64);
    }

    #[test]
    fn gather_sort_takes_linear_rounds() {
        let n = 8;
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 7 + j) % 19) as u64).collect())
            .collect();
        let out = sort_gather(&keys).unwrap();
        assert!(out.metrics.comm_rounds() >= n as u64);
    }
}

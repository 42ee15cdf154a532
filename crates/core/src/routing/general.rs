//! Theorem 3.7 for arbitrary `n`: route in 16 rounds even when `√n` is
//! not an integer.
//!
//! With `q = ⌊√n⌋`, the node set is covered by `V1 = {0, …, q²−1}` and
//! `V2 = {n−q², …, n−1}` (which overlap in the middle as soon as
//! `2q² > n`, true for every `n ≥ 4` except perfect squares where the
//! cover is trivial). Messages within `V1` run Algorithm 1 on a `q²`-node
//! instance; messages within `V2` (and not within `V1`) run a second,
//! id-shifted instance; the remaining *cross* messages — between
//! `A = V1\V2` and `B = V2\V1`, at most `2q` nodes per side — use the
//! paper's 6-round side procedure: spread over all `n` relays, regroup
//! into the destination side, then finish with Corollary 3.4. All three
//! parts run concurrently; message size grows by a constant factor only.
//!
//! `n ≤ 3` (where `2q² < n` can fail) is handled by direct scheduling —
//! at most `n ≤ 3` rounds, trivially within the 16-round bound.

use crate::error::CoreError;
use crate::routing::instance::{RoutedMessage, RoutingInstance};
use crate::routing::square::{RoutePayload, SqMsg, SquareRouter};
use cc_primitives::{Driver, SubsetExchange, SxMsg};
use cc_sim::util::{is_square, isqrt, word_bits};
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, Metrics, NodeId, NodeMachine, Payload, Step};

/// Messages of the V1/V2/V3 cross procedure.
#[derive(Clone, Debug)]
pub enum CxMsg<P = u64> {
    /// Phase 1: spread over relays.
    Phase1(RoutedMessage<P>),
    /// Phase 2: regroup into the destination side.
    Phase2(RoutedMessage<P>),
    /// Final exchange within side `A`.
    SxA(SxMsg<RoutedMessage<P>>),
    /// Final exchange within side `B`.
    SxB(SxMsg<RoutedMessage<P>>),
}

impl<P: Payload> Payload for CxMsg<P> {
    fn size_bits(&self, n: usize) -> u64 {
        2 + match self {
            CxMsg::Phase1(m) | CxMsg::Phase2(m) => m.size_bits(n),
            CxMsg::SxA(m) | CxMsg::SxB(m) => m.size_bits(n),
        }
    }
}

/// Messages of the general router.
#[derive(Clone, Debug)]
pub enum GMsg<P = u64> {
    /// Traffic of the first (or only) square instance.
    I1(SqMsg<P>),
    /// Traffic of the second, id-shifted square instance.
    I2(SqMsg<P>),
    /// Cross-procedure traffic.
    Cross(CxMsg<P>),
    /// Tiny-`n` direct delivery.
    Direct(RoutedMessage<P>),
}

impl<P: Payload> Payload for GMsg<P> {
    fn size_bits(&self, n: usize) -> u64 {
        2 + match self {
            GMsg::I1(m) | GMsg::I2(m) => m.size_bits(n),
            GMsg::Cross(m) => m.size_bits(n),
            GMsg::Direct(m) => m.size_bits(n),
        }
    }
}

/// The 6-round cross procedure for messages between sides `A` and `B`.
pub(crate) struct CrossRouter<P = u64> {
    a_side: Vec<usize>,
    b_side: Vec<usize>,
    cross_msgs: Vec<RoutedMessage<P>>,
    tag: u64,
    call: u32,
    sx_a: Option<SubsetExchange<RoutedMessage<P>>>,
    sx_b: Option<SubsetExchange<RoutedMessage<P>>>,
    delivered: Vec<RoutedMessage<P>>,
}

impl<P: RoutePayload> CrossRouter<P> {
    pub(crate) const ROUNDS: u32 = 6;

    pub(crate) fn new(
        a_side: Vec<usize>,
        b_side: Vec<usize>,
        cross_msgs: Vec<RoutedMessage<P>>,
        tag: u64,
    ) -> Self {
        CrossRouter {
            a_side,
            b_side,
            cross_msgs,
            tag,
            call: 0,
            sx_a: None,
            sx_b: None,
            delivered: Vec::new(),
        }
    }

    fn side_of(&self, v: usize) -> Option<(bool, usize)> {
        if let Ok(i) = self.a_side.binary_search(&v) {
            return Some((true, i));
        }
        if let Ok(i) = self.b_side.binary_search(&v) {
            return Some((false, i));
        }
        None
    }

    pub(crate) fn activate(&mut self, ctx: &mut cc_sim::BaseCtx<'_>) -> Vec<(NodeId, CxMsg<P>)> {
        // Phase 1: the j-th cross message goes to relay node j.
        let mut msgs = std::mem::take(&mut self.cross_msgs);
        crate::sortkey::sort_routed(&mut msgs);
        assert!(msgs.len() <= ctx.n(), "at most n cross messages per node");
        ctx.charge_work(msgs.len() as u64);
        msgs.into_iter()
            .enumerate()
            .map(|(j, m)| (NodeId::new(j), CxMsg::Phase1(m)))
            .collect()
    }

    pub(crate) fn on_round(
        &mut self,
        ctx: &mut cc_sim::BaseCtx<'_>,
        inbox: Vec<(NodeId, CxMsg<P>)>,
    ) -> (Vec<(NodeId, CxMsg<P>)>, Option<Vec<RoutedMessage<P>>>) {
        self.call += 1;
        match self.call {
            1 => {
                // Phase 2: forward each received message toward its
                // destination side, the j-th (canonically) to that side's
                // j-th member.
                let mut to_a = Vec::new();
                let mut to_b = Vec::new();
                for (_, msg) in inbox {
                    let CxMsg::Phase1(m) = msg else {
                        panic!("unexpected message in cross phase 1: {msg:?}");
                    };
                    match self.side_of(m.dst.index()) {
                        Some((true, _)) => to_a.push(m),
                        Some((false, _)) => to_b.push(m),
                        None => panic!("cross message destined outside A ∪ B"),
                    }
                }
                crate::sortkey::sort_routed(&mut to_a);
                crate::sortkey::sort_routed(&mut to_b);
                assert!(to_a.len() <= self.a_side.len(), "phase-2 A overflow");
                assert!(to_b.len() <= self.b_side.len(), "phase-2 B overflow");
                ctx.charge_work((to_a.len() + to_b.len()) as u64);
                let mut sends = Vec::new();
                for (j, m) in to_a.into_iter().enumerate() {
                    sends.push((NodeId::new(self.a_side[j]), CxMsg::Phase2(m)));
                }
                for (j, m) in to_b.into_iter().enumerate() {
                    sends.push((NodeId::new(self.b_side[j]), CxMsg::Phase2(m)));
                }
                (sends, None)
            }
            2 => {
                // Collect phase-2 arrivals; start Cor 3.4 within each side.
                let me = ctx.me().index();
                let my_side = self.side_of(me);
                let mut sends = Vec::new();
                let group_a = cc_primitives::NodeGroup::from_members(
                    self.a_side.iter().map(|&v| NodeId::new(v)).collect(),
                );
                let group_b = cc_primitives::NodeGroup::from_members(
                    self.b_side.iter().map(|&v| NodeId::new(v)).collect(),
                );
                let mut held = Vec::new();
                for (_, msg) in inbox {
                    let CxMsg::Phase2(m) = msg else {
                        panic!("unexpected message in cross phase 2: {msg:?}");
                    };
                    held.push(m);
                }
                let mut sx_a = match my_side {
                    Some((true, local)) => {
                        let mut outgoing = vec![Vec::new(); group_a.len()];
                        for m in held
                            .iter()
                            .filter(|m| self.side_of(m.dst.index()).map(|(a, _)| a) == Some(true))
                        {
                            let (_, j) = self.side_of(m.dst.index()).expect("checked");
                            outgoing[j].push(m.clone());
                        }
                        SubsetExchange::member(
                            group_a,
                            local,
                            outgoing,
                            cc_sim::CommonScope::new("route.cross.sxa", self.tag),
                        )
                    }
                    _ => SubsetExchange::relay_only(),
                };
                let mut sx_b = match my_side {
                    Some((false, local)) => {
                        let mut outgoing = vec![Vec::new(); group_b.len()];
                        for m in held
                            .iter()
                            .filter(|m| self.side_of(m.dst.index()).map(|(a, _)| a) == Some(false))
                        {
                            let (_, j) = self.side_of(m.dst.index()).expect("checked");
                            outgoing[j].push(m.clone());
                        }
                        SubsetExchange::member(
                            group_b,
                            local,
                            outgoing,
                            cc_sim::CommonScope::new("route.cross.sxb", self.tag),
                        )
                    }
                    _ => SubsetExchange::relay_only(),
                };
                sends.extend(
                    sx_a.activate(ctx)
                        .into_iter()
                        .map(|(d, m)| (d, CxMsg::SxA(m))),
                );
                sends.extend(
                    sx_b.activate(ctx)
                        .into_iter()
                        .map(|(d, m)| (d, CxMsg::SxB(m))),
                );
                self.sx_a = Some(sx_a);
                self.sx_b = Some(sx_b);
                (sends, None)
            }
            3..=6 => {
                let mut a_msgs = Vec::new();
                let mut b_msgs = Vec::new();
                for (src, msg) in inbox {
                    match msg {
                        CxMsg::SxA(m) => a_msgs.push((src, m)),
                        CxMsg::SxB(m) => b_msgs.push((src, m)),
                        other => panic!("unexpected message in cross exchange: {other:?}"),
                    }
                }
                let mut sends = Vec::new();
                let step_a = self
                    .sx_a
                    .as_mut()
                    .expect("sx_a active")
                    .on_round(ctx, a_msgs);
                sends.extend(step_a.sends.into_iter().map(|(d, m)| (d, CxMsg::SxA(m))));
                let step_b = self
                    .sx_b
                    .as_mut()
                    .expect("sx_b active")
                    .on_round(ctx, b_msgs);
                sends.extend(step_b.sends.into_iter().map(|(d, m)| (d, CxMsg::SxB(m))));
                if let Some(out) = step_a.output {
                    self.delivered.extend(out);
                }
                if let Some(out) = step_b.output {
                    self.delivered.extend(out);
                }
                if self.call == Self::ROUNDS {
                    (sends, Some(std::mem::take(&mut self.delivered)))
                } else {
                    (sends, None)
                }
            }
            _ => panic!("CrossRouter stepped past completion"),
        }
    }
}

enum Inner<P> {
    /// `n ≤ 3`: direct scheduling, one message per edge per round.
    Tiny {
        queues: Vec<Vec<RoutedMessage<P>>>,
        delivered: Vec<RoutedMessage<P>>,
        rounds_total: u32,
        call: u32,
    },
    /// Perfect-square `n`: a single Algorithm 1 instance.
    Square(SquareRouter<P>),
    /// General `n`: two overlapping square instances plus the cross
    /// procedure.
    Split {
        q2: usize,
        off2: usize,
        i1: Option<SquareRouter<P>>,
        i2: Option<SquareRouter<P>>,
        cross: CrossRouter<P>,
        out1: Option<Vec<RoutedMessage<P>>>,
        out2: Option<Vec<RoutedMessage<P>>>,
        out3: Option<Vec<RoutedMessage<P>>>,
        call: u32,
    },
}

/// Per-node machine of the deterministic 16-round router (Theorem 3.7).
pub struct RouterMachine<P = u64> {
    inner: Inner<P>,
}

impl<P: RoutePayload> RouterMachine<P> {
    /// Builds the machine for node `me` of `instance`.
    pub fn new(instance: &RoutingInstance<P>, me: NodeId) -> Self {
        Self::from_messages(instance.n(), me, instance.sends(me.index()).to_vec(), 0)
    }

    /// Builds the machine for node `me` from its raw send list — used when
    /// the instance exists only distributed across nodes (e.g. Algorithm
    /// 4's Step 6). `tag` disambiguates concurrent or sequential embedded
    /// router instances in the common-knowledge cache; standalone runs use
    /// 0. The caller is responsible for the load bounds the validated
    /// constructor would otherwise check.
    pub fn from_messages(n: usize, me: NodeId, my_msgs: Vec<RoutedMessage<P>>, tag: u64) -> Self {
        if n <= 3 {
            // Round-robin direct schedule: per destination, one message
            // per round; at most n messages per pair, so n rounds.
            let mut queues: Vec<Vec<RoutedMessage<P>>> = vec![Vec::new(); n];
            for m in my_msgs {
                queues[m.dst.index()].push(m);
            }
            for q in &mut queues {
                crate::sortkey::sort_routed(q);
            }
            return RouterMachine {
                inner: Inner::Tiny {
                    queues,
                    delivered: Vec::new(),
                    rounds_total: n as u32,
                    call: 0,
                },
            };
        }
        if is_square(n) {
            return RouterMachine {
                inner: Inner::Square(SquareRouter::new(n, me.index(), my_msgs, tag)),
            };
        }
        let q = isqrt(n);
        let q2 = q * q;
        let off2 = n - q2;
        debug_assert!(2 * q2 >= n, "cover property holds for n >= 4");
        let v = me.index();
        let in_v1 = v < q2;
        let in_v2 = v >= off2;
        let mut m1 = Vec::new();
        let mut m2 = Vec::new();
        let mut mx = Vec::new();
        for m in my_msgs {
            let d = m.dst.index();
            if v < q2 && d < q2 {
                m1.push(m);
            } else if v >= off2 && d >= off2 {
                // Translate into I2's virtual id space.
                m2.push(RoutedMessage::new(
                    NodeId::new(v - off2),
                    NodeId::new(d - off2),
                    m.seq,
                    m.payload,
                ));
            } else {
                mx.push(m);
            }
        }
        let a_side: Vec<usize> = (0..off2).collect(); // V1 \ V2
        let b_side: Vec<usize> = (q2..n).collect(); // V2 \ V1
        RouterMachine {
            inner: Inner::Split {
                q2,
                off2,
                i1: in_v1.then(|| SquareRouter::new(q2, v, m1, cc_sim::hash::combine(tag, 1))),
                i2: in_v2
                    .then(|| SquareRouter::new(q2, v - off2, m2, cc_sim::hash::combine(tag, 2))),
                cross: CrossRouter::new(a_side, b_side, mx, tag),
                out1: None,
                out2: None,
                out3: None,
                call: 0,
            },
        }
    }
}

impl<P: RoutePayload> NodeMachine for RouterMachine<P> {
    type Msg = GMsg<P>;
    type Output = Vec<RoutedMessage<P>>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GMsg<P>>) {
        match &mut self.inner {
            Inner::Tiny { .. } => {}
            Inner::Square(sq) => {
                let (base, outbox) = ctx.split();
                for (dst, m) in sq.activate(base) {
                    outbox.push((NodeId::new(dst), GMsg::I1(m)));
                }
            }
            Inner::Split {
                q2,
                off2,
                i1,
                i2,
                cross,
                ..
            } => {
                let q2 = *q2;
                let off2 = *off2;
                let me = ctx.me();
                let (base, outbox) = ctx.split();
                if let Some(sq) = i1 {
                    let mut vctx = base.virtualized(me, q2);
                    for (dst, m) in sq.activate(&mut vctx) {
                        outbox.push((NodeId::new(dst), GMsg::I1(m)));
                    }
                }
                if let Some(sq) = i2 {
                    let mut vctx = base.virtualized(NodeId::new(me.index() - off2), q2);
                    for (dst, m) in sq.activate(&mut vctx) {
                        outbox.push((NodeId::new(dst + off2), GMsg::I2(m)));
                    }
                }
                for (dst, m) in cross.activate(base) {
                    outbox.push((dst, GMsg::Cross(m)));
                }
            }
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, GMsg<P>>,
        inbox: &mut Inbox<GMsg<P>>,
    ) -> Step<Self::Output> {
        match &mut self.inner {
            Inner::Tiny {
                queues,
                delivered,
                rounds_total,
                call,
            } => {
                *call += 1;
                for (_, msg) in inbox.drain() {
                    let GMsg::Direct(m) = msg else {
                        panic!("unexpected message in tiny router: {msg:?}");
                    };
                    delivered.push(m);
                }
                if *call <= *rounds_total {
                    for (dst, q) in queues.iter_mut().enumerate() {
                        if let Some(m) = q.pop() {
                            ctx.send(NodeId::new(dst), GMsg::Direct(m));
                        }
                    }
                }
                // One extra trailing round collects the final arrivals.
                if *call == *rounds_total + 1 {
                    Step::Done(std::mem::take(delivered))
                } else {
                    Step::Continue
                }
            }
            Inner::Square(sq) => {
                let msgs: Vec<(usize, SqMsg<P>)> = inbox
                    .drain()
                    .map(|(src, msg)| match msg {
                        GMsg::I1(m) => (src.index(), m),
                        other => panic!("unexpected message in square router: {other:?}"),
                    })
                    .collect();
                let (base, outbox) = ctx.split();
                let (sends, out) = sq.on_round(base, msgs);
                for (dst, m) in sends {
                    outbox.push((NodeId::new(dst), GMsg::I1(m)));
                }
                match out {
                    Some(delivered) => Step::Done(delivered),
                    None => Step::Continue,
                }
            }
            Inner::Split {
                q2,
                off2,
                i1,
                i2,
                cross,
                out1,
                out2,
                out3,
                call,
            } => {
                *call += 1;
                let q2 = *q2;
                let off2 = *off2;
                let mut inbox1 = Vec::new();
                let mut inbox2 = Vec::new();
                let mut inbox3 = Vec::new();
                for (src, msg) in inbox.drain() {
                    match msg {
                        GMsg::I1(m) => inbox1.push((src.index(), m)),
                        GMsg::I2(m) => inbox2.push((src.index() - off2, m)),
                        GMsg::Cross(m) => inbox3.push((src, m)),
                        other => panic!("unexpected message in split router: {other:?}"),
                    }
                }
                let me = ctx.me();
                let (base, outbox) = ctx.split();
                if *call <= SquareRouter::<P>::ROUNDS {
                    if let Some(sq) = i1 {
                        let mut vctx = base.virtualized(me, q2);
                        let (sends, out) = sq.on_round(&mut vctx, inbox1);
                        for (dst, m) in sends {
                            outbox.push((NodeId::new(dst), GMsg::I1(m)));
                        }
                        if let Some(d) = out {
                            *out1 = Some(d);
                        }
                    } else {
                        debug_assert!(inbox1.is_empty(), "I1 traffic outside V1");
                    }
                    if let Some(sq) = i2 {
                        let mut vctx = base.virtualized(NodeId::new(me.index() - off2), q2);
                        let (sends, out) = sq.on_round(&mut vctx, inbox2);
                        for (dst, m) in sends {
                            outbox.push((NodeId::new(dst + off2), GMsg::I2(m)));
                        }
                        if let Some(d) = out {
                            // Translate deliveries back to global ids.
                            *out2 = Some(
                                d.into_iter()
                                    .map(|m| {
                                        RoutedMessage::new(
                                            NodeId::new(m.src.index() + off2),
                                            NodeId::new(m.dst.index() + off2),
                                            m.seq,
                                            m.payload,
                                        )
                                    })
                                    .collect(),
                            );
                        }
                    } else {
                        debug_assert!(inbox2.is_empty(), "I2 traffic outside V2");
                    }
                }
                if *call <= CrossRouter::<P>::ROUNDS {
                    let (sends, out) = cross.on_round(base, inbox3);
                    for (dst, m) in sends {
                        outbox.push((dst, GMsg::Cross(m)));
                    }
                    if let Some(d) = out {
                        *out3 = Some(d);
                    }
                } else {
                    debug_assert!(inbox3.is_empty(), "late cross traffic");
                }
                if *call == SquareRouter::<P>::ROUNDS {
                    let mut all = Vec::new();
                    all.extend(out1.take().unwrap_or_default());
                    all.extend(out2.take().unwrap_or_default());
                    all.extend(out3.take().unwrap_or_default());
                    Step::Done(all)
                } else {
                    Step::Continue
                }
            }
        }
    }
}

/// The outcome of a routing run: per-node deliveries plus measurements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteOutcome<P = u64> {
    /// `delivered[k]` is the multiset `R_k`, canonically sorted.
    pub delivered: Vec<Vec<RoutedMessage<P>>>,
    /// Rounds, messages, bits, work.
    pub metrics: Metrics,
}

/// The simulator spec the deterministic router needs: the per-edge budget
/// covers the worst-case constant-factor message growth of the parallel
/// V1/V2/V3 composition (three concurrent sub-protocols with doubled
/// relay legs — a generous fixed constant, still `O(log n)` bits).
pub fn spec_for_routing(n: usize) -> CliqueSpec {
    CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(64)
        .with_max_rounds(64)
}

/// Routes `instance` with the deterministic 16-round algorithm
/// (Theorem 3.7), verifying the delivery before returning.
///
/// # Errors
///
/// Propagates simulator errors (budget/liveness violations) and
/// verification failures — none of which occur for valid instances; they
/// indicate implementation bugs and are surfaced rather than masked.
pub fn route_deterministic<P: RoutePayload>(
    instance: &RoutingInstance<P>,
) -> Result<RouteOutcome<P>, CoreError> {
    route_with_spec(instance, spec_for_routing(instance.n()))
}

/// As [`route_deterministic`] with a caller-provided spec (used by the
/// experiment tables to tighten budgets or record histograms).
///
/// # Errors
///
/// See [`route_deterministic`].
pub fn route_with_spec<P: RoutePayload>(
    instance: &RoutingInstance<P>,
    spec: CliqueSpec,
) -> Result<RouteOutcome<P>, CoreError> {
    route_on(instance, spec, &mut CliqueSession::new())
}

/// The driver behind both [`route_with_spec`] (on a fresh session) and
/// [`CliqueService::route`](crate::CliqueService::route) (on its
/// persistent session): builds the per-node machines, runs them on
/// `session`, and verifies the delivery.
///
/// # Errors
///
/// See [`route_deterministic`].
pub(crate) fn route_on<P: RoutePayload>(
    instance: &RoutingInstance<P>,
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<RouteOutcome<P>, CoreError> {
    let n = instance.n();
    let machines = (0..n)
        .map(|v| RouterMachine::new(instance, NodeId::new(v)))
        .collect();
    let report = session.run(spec, machines)?;
    let mut delivered = report.outputs;
    for d in &mut delivered {
        crate::sortkey::sort_routed(d);
    }
    instance.verify_delivery(&delivered)?;
    Ok(RouteOutcome {
        delivered,
        metrics: report.metrics,
    })
}

/// Upper bound on the bits any single protocol message occupies, used by
/// budget sanity tests.
pub fn max_message_bits(n: usize) -> u64 {
    // GMsg tag + SqMsg tag + KxMsg framing + Inter payload.
    3 + 4 + 1 + word_bits(n) + 6 * word_bits(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_routing(n: usize, demand: impl Fn(usize, usize) -> u32) -> Metrics {
        let instance = RoutingInstance::from_demands(n, demand).unwrap();
        let outcome = route_deterministic(&instance).unwrap();
        outcome.metrics
    }

    #[test]
    fn square_full_permutation_load() {
        // n = 16: node i sends one message to every node (n per node).
        let m = check_routing(16, |_, _| 1);
        assert_eq!(m.comm_rounds(), 16);
    }

    #[test]
    fn square_cyclic_worst_case() {
        // All of node i's messages target node i+1 — the workload that
        // forces Θ(n) rounds for direct routing.
        let n = 16;
        let m = check_routing(n, |i, j| if (i + 1) % n == j { n as u32 } else { 0 });
        assert_eq!(m.comm_rounds(), 16);
    }

    #[test]
    fn square_partial_load() {
        let m = check_routing(16, |i, j| ((i * 31 + j * 17) % 3 == 0) as u32);
        assert!(m.comm_rounds() <= 16);
    }

    #[test]
    fn square_empty_instance() {
        let m = check_routing(16, |_, _| 0);
        assert!(m.comm_rounds() <= 16);
    }

    #[test]
    fn non_square_sizes() {
        for n in [5, 6, 7, 8, 10, 12, 15, 17, 20] {
            let m = check_routing(n, |i, j| u32::from((i + j) % 3 == 0));
            assert!(m.comm_rounds() <= 16, "n={n}: {} rounds", m.comm_rounds());
        }
    }

    #[test]
    fn non_square_full_load() {
        // Every node sends n messages: i -> (i+k) mod n gets one each.
        for n in [5, 8, 12] {
            let m = check_routing(n, |_, _| 1);
            assert!(m.comm_rounds() <= 16, "n={n}: {} rounds", m.comm_rounds());
        }
    }

    #[test]
    fn tiny_cliques() {
        for n in [1, 2, 3] {
            let m = check_routing(n, |_, _| 1);
            assert!(m.comm_rounds() <= 16, "n={n}");
        }
        // Full skew on n = 3: all three messages from each node to one
        // destination.
        let m = check_routing(3, |i, j| if (i + 1) % 3 == j { 3 } else { 0 });
        assert!(m.comm_rounds() <= 16);
    }

    #[test]
    fn self_messages_are_delivered() {
        let m = check_routing(9, |i, j| u32::from(i == j) * 3);
        assert!(m.comm_rounds() <= 16);
    }

    #[test]
    fn message_sizes_stay_logarithmic() {
        let instance = RoutingInstance::from_demands(25, |_, _| 1).unwrap();
        let outcome = route_deterministic(&instance).unwrap();
        let budget = spec_for_routing(25).bits_per_edge();
        assert!(outcome.metrics.max_edge_bits() <= budget);
    }
}

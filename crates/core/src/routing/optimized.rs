//! Theorem 5.4: routing in 12 rounds with `O(n log n)` local computation
//! and memory per node (§5 of the paper).
//!
//! Three devices replace the heavyweight steps of the basic algorithm:
//!
//! 1. **Grouped set-level coloring** (Lemma 5.3): instead of one
//!    multigraph edge per message (`n²` edges), messages from set `W_a` to
//!    set `W_b` are packed into `⌊T_ab/n⌋ + 3` *groups* of up to `n`
//!    slots, and only the `O(n)`-edge group graph is colored. The
//!    `+3` rounds partial groups up, which subsumes the paper's separate
//!    residual-delivery path (footnote 6) at a constant-factor quota
//!    increase.
//! 2. **Oblivious round-robin scatter** (Lemma 5.1 / Corollary 5.2): the
//!    within-set balancing steps drop their count announcements and König
//!    plans entirely; each node spreads its messages round-robin, which
//!    bounds every per-(node, class) load by `class-total/√n + √n`. Each
//!    node then binds its messages to groups through a *striped* slot
//!    numbering (`slot = j·√n + rank`), so group membership needs no
//!    global coordination.
//! 3. **Bundled exchanges** (footnote 3): the final Corollary 3.4
//!    delivery colors a bundle graph with `O(n)` edges instead of one
//!    edge per message.
//!
//! Round schedule: Step 1 counts (2) + scatter (2) + cross-set move (1)
//! + scatter (2) + move into destination sets (1) + Cor 3.4 (4) = **12**.

use crate::error::CoreError;
use crate::routing::general::{CrossRouter, CxMsg, RouteOutcome};
use crate::routing::instance::{RoutedMessage, RoutingInstance};
use crate::routing::square::RoutePayload;
use cc_coloring::{
    color_exact, exact_coloring_work, pad_demands_to_regular, BipartiteMultigraph, EdgeIndexer,
};
use cc_primitives::{
    DemandMatrix, Driver, NodeGroup, RoundRobinScatter, ScatterMsg, SubsetExchange, SxMsg,
};
use cc_sim::hash::hash_u32s;
use cc_sim::util::{is_square, isqrt, word_bits};
use cc_sim::{
    BaseCtx, CliqueSession, CliqueSpec, CommonScope, Ctx, Inbox, NodeId, NodeMachine, Payload, Step,
};
use std::sync::Arc;

/// Messages of the optimized square router.
#[allow(clippy::large_enum_variant)] // hot-path messages; boxing would cost more than the size skew
#[derive(Clone, Debug)]
pub enum OptMsg<P = u64> {
    /// Step 1a: per-destination-set count.
    Cnt(u64),
    /// Step 1b: set-pair total broadcast.
    Total(u64),
    /// First within-set scatter (replaces Alg 2 Steps 3–5).
    Sc1(ScatterMsg<RoutedMessage<P>>),
    /// Cross-set move (Alg 2 Step 6).
    Move6(RoutedMessage<P>),
    /// Second within-set scatter (replaces Alg 1 Step 3).
    Sc2(ScatterMsg<RoutedMessage<P>>),
    /// Move into destination sets (Alg 1 Step 4).
    Move4(RoutedMessage<P>),
    /// Final Cor 3.4 exchange (bundled).
    Sx(SxMsg<RoutedMessage<P>>),
}

impl<P: Payload> Payload for OptMsg<P> {
    fn size_bits(&self, n: usize) -> u64 {
        3 + match self {
            OptMsg::Cnt(_) | OptMsg::Total(_) => 2 * word_bits(n),
            OptMsg::Sc1(m) | OptMsg::Sc2(m) => m.size_bits(n),
            OptMsg::Move6(m) | OptMsg::Move4(m) => m.size_bits(n),
            OptMsg::Sx(m) => m.size_bits(n),
        }
    }
}

/// The grouped Step 2 plan: a König coloring of the `O(√n)`-degree group
/// graph; group `g` of cell `(a, b)` is routed via intermediate set
/// `color(a, b, g) mod s`.
struct GroupPlan {
    idx: EdgeIndexer,
    colors: Vec<u32>,
    edges: usize,
    degree: u64,
}

fn build_group_plan(s: usize, n: usize, t_counts: &[u32]) -> GroupPlan {
    // Group counts: ⌊T/n⌋ + 3 covers the maximum striped slot T + 2n.
    let groups: Vec<u32> = t_counts
        .iter()
        .map(|&t| {
            if t == 0 {
                0
            } else {
                (t as usize / n + 3) as u32
            }
        })
        .collect();
    let gm = DemandMatrix::from_counts(s, groups.clone());
    let degree = gm.max_line_sum();
    if degree == 0 {
        return GroupPlan {
            idx: EdgeIndexer::new(s, s, &groups),
            colors: Vec::new(),
            edges: 0,
            degree: 0,
        };
    }
    let d32 = u32::try_from(degree).expect("group degree fits u32");
    let extra = pad_demands_to_regular(s, s, &groups, d32).expect("line sums bounded by degree");
    let padded: Vec<u32> = groups.iter().zip(&extra).map(|(a, b)| a + b).collect();
    let graph = BipartiteMultigraph::from_demands(s, s, &padded).expect("shape is s × s");
    let coloring = color_exact(&graph).expect("padded matrix is regular");
    GroupPlan {
        idx: EdgeIndexer::new(s, s, &padded),
        colors: coloring.colors().to_vec(),
        edges: graph.num_edges(),
        degree,
    }
}

/// The 12-round computation-optimal square router (virtual id space).
pub(crate) struct OptSquareRouter<P = u64> {
    vn: usize,
    s: usize,
    vme: usize,
    a: usize,
    r: usize,
    tag: u64,
    call: u32,
    /// My messages, sorted by (destination set, key); consumed at call 2.
    messages: Vec<RoutedMessage<P>>,
    /// Per-destination-set counts of my input (for Step 1a).
    counts: Vec<u64>,
    t_counts: Vec<u32>,
    plan: Option<Arc<GroupPlan>>,
    sc1: Option<RoundRobinScatter<RoutedMessage<P>>>,
    sc2: Option<RoundRobinScatter<RoutedMessage<P>>>,
    sx: Option<SubsetExchange<RoutedMessage<P>>>,
}

impl<P: RoutePayload> OptSquareRouter<P> {
    pub(crate) const ROUNDS: u32 = 12;

    pub(crate) fn new(
        vn: usize,
        vme: usize,
        mut messages: Vec<RoutedMessage<P>>,
        tag: u64,
    ) -> Self {
        let s = isqrt(vn);
        assert_eq!(s * s, vn, "OptSquareRouter requires a perfect square size");
        let mut counts = vec![0u64; s];
        for m in &messages {
            assert_eq!(m.src.index(), vme, "message not owned by this node");
            counts[m.dst.index() / s] += 1;
        }
        crate::sortkey::sort_routed_by_set(&mut messages, s);
        OptSquareRouter {
            vn,
            s,
            vme,
            a: vme / s,
            r: vme % s,
            tag,
            call: 0,
            messages,
            counts,
            t_counts: vec![0; s * s],
            plan: None,
            sc1: None,
            sc2: None,
            sx: None,
        }
    }

    fn my_group(&self) -> NodeGroup {
        NodeGroup::contiguous(self.a * self.s, self.s)
    }

    pub(crate) fn activate(&mut self, ctx: &mut BaseCtx<'_>) -> Vec<(usize, OptMsg<P>)> {
        debug_assert_eq!(ctx.n(), self.vn);
        ctx.charge_work(self.messages.len() as u64);
        ctx.note_mem(5 * self.messages.len() as u64);
        (0..self.s)
            .map(|i| (self.a * self.s + i, OptMsg::Cnt(self.counts[i])))
            .collect()
    }

    pub(crate) fn on_round(
        &mut self,
        ctx: &mut BaseCtx<'_>,
        inbox: Vec<(usize, OptMsg<P>)>,
    ) -> (Vec<(usize, OptMsg<P>)>, Option<Vec<RoutedMessage<P>>>) {
        self.call += 1;
        match self.call {
            1 => {
                let mut total = 0u64;
                for (_, msg) in inbox {
                    let OptMsg::Cnt(c) = msg else {
                        panic!("unexpected message in Step 1a: {msg:?}");
                    };
                    total += c;
                }
                ctx.charge_work(self.s as u64);
                (
                    (0..self.vn).map(|v| (v, OptMsg::Total(total))).collect(),
                    None,
                )
            }
            2 => {
                for (src, msg) in inbox {
                    let OptMsg::Total(t) = msg else {
                        panic!("unexpected message in Step 1b: {msg:?}");
                    };
                    self.t_counts[src] = u32::try_from(t).expect("set totals fit u32");
                }
                let (s, vn) = (self.s, self.vn);
                let t_ref = self.t_counts.clone();
                let plan: Arc<GroupPlan> = ctx.common().get_or_compute(
                    CommonScope::new("route.opt.groupplan", self.tag),
                    hash_u32s(&self.t_counts),
                    move || build_group_plan(s, vn, &t_ref),
                );
                ctx.charge_work(exact_coloring_work(plan.edges, plan.degree as usize));
                ctx.note_mem(plan.edges as u64);
                self.plan = Some(plan);
                // First scatter: messages already sorted by destination
                // set — Lemma 5.1's required class order.
                let mut sc =
                    RoundRobinScatter::member(self.my_group(), std::mem::take(&mut self.messages));
                let sends = sc.activate(ctx);
                self.sc1 = Some(sc);
                (wrap(sends, OptMsg::Sc1), None)
            }
            3 => (self.drive_sc1(ctx, inbox, false), None),
            4 => (self.drive_sc1(ctx, inbox, true), None),
            5 => {
                // Step 6 arrivals: I hold messages within my set (their
                // intermediate); start the second scatter, classed by
                // final destination set.
                let mut held = Vec::new();
                for (_, msg) in inbox {
                    let OptMsg::Move6(m) = msg else {
                        panic!("unexpected message in Step 6: {msg:?}");
                    };
                    held.push(m);
                }
                crate::sortkey::sort_routed_by_set(&mut held, self.s);
                ctx.charge_work(held.len() as u64);
                ctx.note_mem(5 * held.len() as u64);
                let mut sc = RoundRobinScatter::member(self.my_group(), held);
                let sends = sc.activate(ctx);
                self.sc2 = Some(sc);
                (wrap(sends, OptMsg::Sc2), None)
            }
            6 => (self.drive_sc2(ctx, inbox, false), None),
            7 => (self.drive_sc2(ctx, inbox, true), None),
            8 => {
                // Step 4 arrivals: everything is destined within my set;
                // run the final bundled Cor 3.4 exchange.
                let s = self.s;
                let mut outgoing: Vec<Vec<RoutedMessage<P>>> = vec![Vec::new(); s];
                for (_, msg) in inbox {
                    let OptMsg::Move4(m) = msg else {
                        panic!("unexpected message in Step 4: {msg:?}");
                    };
                    debug_assert_eq!(m.dst.index() / s, self.a, "Step 4 misrouted");
                    outgoing[m.dst.index() % s].push(m);
                }
                ctx.charge_work(outgoing.iter().map(|o| o.len() as u64).sum());
                let mut sx = SubsetExchange::member_bundled(
                    self.my_group(),
                    self.r,
                    outgoing,
                    CommonScope::new("route.opt.sx", self.tag),
                );
                let sends = sx.activate(ctx);
                self.sx = Some(sx);
                (wrap(sends, OptMsg::Sx), None)
            }
            9..=11 => {
                let step = self.sx.as_mut().expect("sx active").on_round(
                    ctx,
                    unwrap(inbox, |m| match m {
                        OptMsg::Sx(x) => x,
                        other => panic!("unexpected message in final exchange: {other:?}"),
                    }),
                );
                debug_assert!(step.output.is_none());
                (wrap(step.sends, OptMsg::Sx), None)
            }
            12 => {
                let step = self.sx.as_mut().expect("sx active").on_round(
                    ctx,
                    unwrap(inbox, |m| match m {
                        OptMsg::Sx(x) => x,
                        other => panic!("unexpected message in final exchange: {other:?}"),
                    }),
                );
                let delivered = step.output.expect("exchange completes at call 12");
                debug_assert!(delivered.iter().all(|m| m.dst.index() == self.vme));
                ctx.charge_work(delivered.len() as u64);
                (Vec::new(), Some(delivered))
            }
            _ => panic!("OptSquareRouter stepped past completion"),
        }
    }

    /// Drives the first scatter; on completion binds every held message
    /// to its group via the striped slot numbering and executes the
    /// cross-set move (Alg 2 Step 6).
    fn drive_sc1(
        &mut self,
        ctx: &mut BaseCtx<'_>,
        inbox: Vec<(usize, OptMsg<P>)>,
        expect_done: bool,
    ) -> Vec<(usize, OptMsg<P>)> {
        let step = self.sc1.as_mut().expect("sc1 active").on_round(
            ctx,
            unwrap(inbox, |m| match m {
                OptMsg::Sc1(x) => x,
                other => panic!("unexpected message in first scatter: {other:?}"),
            }),
        );
        if !expect_done {
            debug_assert!(step.output.is_none());
            return wrap(step.sends, OptMsg::Sc1);
        }
        let mut held = step.output.expect("scatter completes on second round");
        let (s, vn) = (self.s, self.vn);
        let plan = self.plan.as_ref().expect("group plan from call 2");
        // Striped slot binding: my j-th class-b message occupies virtual
        // slot j·s + r of cell (a, b); its group is slot / n.
        crate::sortkey::sort_routed_by_set(&mut held, s);
        let mut by_sigma: Vec<Vec<RoutedMessage<P>>> = vec![Vec::new(); s];
        let mut class_pos = vec![0usize; s];
        for m in held {
            let b = m.dst.index() / s;
            let j = class_pos[b];
            class_pos[b] += 1;
            let slot = j * s + self.r;
            let group = slot / vn;
            let edge = plan.idx.edge_id(self.a, b, group);
            let sigma = (plan.colors[edge] as usize) % s;
            by_sigma[sigma].push(m);
        }
        let mut sends = Vec::new();
        for (sigma, items) in by_sigma.into_iter().enumerate() {
            for (j, m) in items.into_iter().enumerate() {
                sends.push((sigma * s + (j % s), OptMsg::Move6(m)));
            }
        }
        ctx.charge_work(sends.len() as u64);
        sends
    }

    /// Drives the second scatter; on completion executes Alg 1 Step 4.
    fn drive_sc2(
        &mut self,
        ctx: &mut BaseCtx<'_>,
        inbox: Vec<(usize, OptMsg<P>)>,
        expect_done: bool,
    ) -> Vec<(usize, OptMsg<P>)> {
        let step = self.sc2.as_mut().expect("sc2 active").on_round(
            ctx,
            unwrap(inbox, |m| match m {
                OptMsg::Sc2(x) => x,
                other => panic!("unexpected message in second scatter: {other:?}"),
            }),
        );
        if !expect_done {
            debug_assert!(step.output.is_none());
            return wrap(step.sends, OptMsg::Sc2);
        }
        let held = step.output.expect("scatter completes on second round");
        let s = self.s;
        let mut by_b: Vec<Vec<RoutedMessage<P>>> = vec![Vec::new(); s];
        for m in held {
            by_b[m.dst.index() / s].push(m);
        }
        let mut sends = Vec::new();
        for (b, mut items) in by_b.into_iter().enumerate() {
            crate::sortkey::sort_routed(&mut items);
            for (j, m) in items.into_iter().enumerate() {
                sends.push((b * s + (j % s), OptMsg::Move4(m)));
            }
        }
        ctx.charge_work(sends.len() as u64);
        sends
    }
}

fn wrap<P, M>(sends: Vec<(NodeId, M)>, f: impl Fn(M) -> OptMsg<P>) -> Vec<(usize, OptMsg<P>)> {
    sends.into_iter().map(|(d, m)| (d.index(), f(m))).collect()
}

fn unwrap<P, M>(inbox: Vec<(usize, OptMsg<P>)>, f: impl Fn(OptMsg<P>) -> M) -> Vec<(NodeId, M)> {
    inbox
        .into_iter()
        .map(|(src, m)| (NodeId::new(src), f(m)))
        .collect()
}

/// Messages of the general optimized router.
#[derive(Clone, Debug)]
pub enum OGMsg<P = u64> {
    /// First (or only) square instance.
    I1(OptMsg<P>),
    /// Second, id-shifted square instance.
    I2(OptMsg<P>),
    /// Cross-procedure traffic.
    Cross(CxMsg<P>),
    /// Tiny-`n` direct delivery.
    Direct(RoutedMessage<P>),
}

impl<P: Payload> Payload for OGMsg<P> {
    fn size_bits(&self, n: usize) -> u64 {
        2 + match self {
            OGMsg::I1(m) | OGMsg::I2(m) => m.size_bits(n),
            OGMsg::Cross(m) => m.size_bits(n),
            OGMsg::Direct(m) => m.size_bits(n),
        }
    }
}

enum OptInner<P> {
    Tiny {
        queues: Vec<Vec<RoutedMessage<P>>>,
        delivered: Vec<RoutedMessage<P>>,
        rounds_total: u32,
        call: u32,
    },
    Square(OptSquareRouter<P>),
    Split {
        q2: usize,
        off2: usize,
        i1: Option<OptSquareRouter<P>>,
        i2: Option<OptSquareRouter<P>>,
        cross: CrossRouter<P>,
        out1: Option<Vec<RoutedMessage<P>>>,
        out2: Option<Vec<RoutedMessage<P>>>,
        out3: Option<Vec<RoutedMessage<P>>>,
        call: u32,
    },
}

/// Per-node machine of the 12-round, `O(n log n)`-work router
/// (Theorem 5.4).
pub struct OptRouterMachine<P = u64> {
    inner: OptInner<P>,
}

impl<P: RoutePayload> OptRouterMachine<P> {
    /// Builds the machine for node `me` of `instance`.
    pub fn new(instance: &RoutingInstance<P>, me: NodeId) -> Self {
        Self::from_messages(instance.n(), me, instance.sends(me.index()).to_vec(), 0)
    }

    /// Builds the machine for node `me` from its raw send list — used when
    /// the instance exists only distributed across nodes (e.g. Algorithm
    /// 4's Step 6). `tag` disambiguates embedded router instances in the
    /// common-knowledge cache: a square `n` uses scope tag `tag`, the
    /// split cover `tag + 1` / `tag + 2` for its two square instances and
    /// `tag + 3` for the cross procedure, so concurrent or sequential
    /// instances need tags at least 4 apart. Standalone runs use 0. The
    /// caller is responsible for the load bounds the validated constructor
    /// would otherwise check.
    pub fn from_messages(n: usize, me: NodeId, my_msgs: Vec<RoutedMessage<P>>, tag: u64) -> Self {
        if n <= 3 {
            let mut queues: Vec<Vec<RoutedMessage<P>>> = vec![Vec::new(); n];
            for m in my_msgs {
                queues[m.dst.index()].push(m);
            }
            return OptRouterMachine {
                inner: OptInner::Tiny {
                    queues,
                    delivered: Vec::new(),
                    rounds_total: n as u32,
                    call: 0,
                },
            };
        }
        if is_square(n) {
            return OptRouterMachine {
                inner: OptInner::Square(OptSquareRouter::new(n, me.index(), my_msgs, tag)),
            };
        }
        let q = isqrt(n);
        let q2 = q * q;
        let off2 = n - q2;
        let v = me.index();
        let mut m1 = Vec::new();
        let mut m2 = Vec::new();
        let mut mx = Vec::new();
        for m in my_msgs {
            let d = m.dst.index();
            if v < q2 && d < q2 {
                m1.push(m);
            } else if v >= off2 && d >= off2 {
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
        OptRouterMachine {
            inner: OptInner::Split {
                q2,
                off2,
                i1: (v < q2).then(|| OptSquareRouter::new(q2, v, m1, tag.wrapping_add(1))),
                i2: (v >= off2)
                    .then(|| OptSquareRouter::new(q2, v - off2, m2, tag.wrapping_add(2))),
                cross: CrossRouter::new(
                    (0..off2).collect(),
                    (q2..n).collect(),
                    mx,
                    tag.wrapping_add(3),
                ),
                out1: None,
                out2: None,
                out3: None,
                call: 0,
            },
        }
    }
}

impl<P: RoutePayload> NodeMachine for OptRouterMachine<P> {
    type Msg = OGMsg<P>;
    type Output = Vec<RoutedMessage<P>>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, OGMsg<P>>) {
        match &mut self.inner {
            OptInner::Tiny { .. } => {}
            OptInner::Square(sq) => {
                let (base, outbox) = ctx.split();
                for (dst, m) in sq.activate(base) {
                    outbox.push((NodeId::new(dst), OGMsg::I1(m)));
                }
            }
            OptInner::Split {
                q2,
                off2,
                i1,
                i2,
                cross,
                ..
            } => {
                let (q2, off2) = (*q2, *off2);
                let me = ctx.me();
                let (base, outbox) = ctx.split();
                if let Some(sq) = i1 {
                    let mut vctx = base.virtualized(me, q2);
                    for (dst, m) in sq.activate(&mut vctx) {
                        outbox.push((NodeId::new(dst), OGMsg::I1(m)));
                    }
                }
                if let Some(sq) = i2 {
                    let mut vctx = base.virtualized(NodeId::new(me.index() - off2), q2);
                    for (dst, m) in sq.activate(&mut vctx) {
                        outbox.push((NodeId::new(dst + off2), OGMsg::I2(m)));
                    }
                }
                for (dst, m) in cross.activate(base) {
                    outbox.push((dst, OGMsg::Cross(m)));
                }
            }
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, OGMsg<P>>,
        inbox: &mut Inbox<OGMsg<P>>,
    ) -> Step<Self::Output> {
        match &mut self.inner {
            OptInner::Tiny {
                queues,
                delivered,
                rounds_total,
                call,
            } => {
                *call += 1;
                for (_, msg) in inbox.drain() {
                    let OGMsg::Direct(m) = msg else {
                        panic!("unexpected message in tiny router: {msg:?}");
                    };
                    delivered.push(m);
                }
                if *call <= *rounds_total {
                    for (dst, q) in queues.iter_mut().enumerate() {
                        if let Some(m) = q.pop() {
                            ctx.send(NodeId::new(dst), OGMsg::Direct(m));
                        }
                    }
                }
                if *call == *rounds_total + 1 {
                    Step::Done(std::mem::take(delivered))
                } else {
                    Step::Continue
                }
            }
            OptInner::Square(sq) => {
                let msgs: Vec<(usize, OptMsg<P>)> = inbox
                    .drain()
                    .map(|(src, msg)| match msg {
                        OGMsg::I1(m) => (src.index(), m),
                        other => panic!("unexpected message in opt square router: {other:?}"),
                    })
                    .collect();
                let (base, outbox) = ctx.split();
                let (sends, out) = sq.on_round(base, msgs);
                for (dst, m) in sends {
                    outbox.push((NodeId::new(dst), OGMsg::I1(m)));
                }
                match out {
                    Some(d) => Step::Done(d),
                    None => Step::Continue,
                }
            }
            OptInner::Split {
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
                let (q2, off2) = (*q2, *off2);
                let mut inbox1 = Vec::new();
                let mut inbox2 = Vec::new();
                let mut inbox3 = Vec::new();
                for (src, msg) in inbox.drain() {
                    match msg {
                        OGMsg::I1(m) => inbox1.push((src.index(), m)),
                        OGMsg::I2(m) => inbox2.push((src.index() - off2, m)),
                        OGMsg::Cross(m) => inbox3.push((src, m)),
                        other => panic!("unexpected message in split router: {other:?}"),
                    }
                }
                let me = ctx.me();
                let (base, outbox) = ctx.split();
                if *call <= OptSquareRouter::<P>::ROUNDS {
                    if let Some(sq) = i1 {
                        let mut vctx = base.virtualized(me, q2);
                        let (sends, out) = sq.on_round(&mut vctx, inbox1);
                        for (dst, m) in sends {
                            outbox.push((NodeId::new(dst), OGMsg::I1(m)));
                        }
                        if let Some(d) = out {
                            *out1 = Some(d);
                        }
                    }
                    if let Some(sq) = i2 {
                        let mut vctx = base.virtualized(NodeId::new(me.index() - off2), q2);
                        let (sends, out) = sq.on_round(&mut vctx, inbox2);
                        for (dst, m) in sends {
                            outbox.push((NodeId::new(dst + off2), OGMsg::I2(m)));
                        }
                        if let Some(d) = out {
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
                    }
                }
                if *call <= CrossRouter::<P>::ROUNDS {
                    let (sends, out) = cross.on_round(base, inbox3);
                    for (dst, m) in sends {
                        outbox.push((dst, OGMsg::Cross(m)));
                    }
                    if let Some(d) = out {
                        *out3 = Some(d);
                    }
                }
                if *call == OptSquareRouter::<P>::ROUNDS {
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

/// The spec for the optimized router: wider constant-factor budget (the
/// oblivious scatters trade exactness for approximate balance).
pub fn spec_for_optimized(n: usize) -> CliqueSpec {
    CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(160)
        .with_max_rounds(64)
}

/// Routes `instance` with the 12-round, `O(n log n)`-work algorithm of
/// Theorem 5.4, verifying the delivery before returning.
///
/// # Errors
///
/// Propagates simulator and verification errors; see
/// [`route_deterministic`](crate::routing::route_deterministic).
pub fn route_optimized<P: RoutePayload>(
    instance: &RoutingInstance<P>,
) -> Result<RouteOutcome<P>, CoreError> {
    route_optimized_with_spec(instance, spec_for_optimized(instance.n()))
}

/// As [`route_optimized`] with a caller-provided spec.
///
/// # Errors
///
/// See [`route_optimized`].
pub fn route_optimized_with_spec<P: RoutePayload>(
    instance: &RoutingInstance<P>,
    spec: CliqueSpec,
) -> Result<RouteOutcome<P>, CoreError> {
    route_optimized_on(instance, spec, &mut CliqueSession::new())
}

/// The shared driver: the stateless entry point runs it on a fresh
/// session, [`CliqueService`](crate::CliqueService) on its own.
///
/// # Errors
///
/// See [`route_optimized`].
pub(crate) fn route_optimized_on<P: RoutePayload>(
    instance: &RoutingInstance<P>,
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<RouteOutcome<P>, CoreError> {
    let n = instance.n();
    let machines = (0..n)
        .map(|v| OptRouterMachine::new(instance, NodeId::new(v)))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn check(n: usize, demand: impl Fn(usize, usize) -> u32) -> cc_sim::Metrics {
        let instance = RoutingInstance::from_demands(n, demand).unwrap();
        route_optimized(&instance).unwrap().metrics
    }

    #[test]
    fn square_full_load_in_12_rounds() {
        let m = check(16, |_, _| 1);
        assert_eq!(m.comm_rounds(), 12);
    }

    #[test]
    fn square_cyclic_worst_case() {
        let n = 16;
        let m = check(n, |i, j| if (i + 1) % n == j { n as u32 } else { 0 });
        assert_eq!(m.comm_rounds(), 12);
    }

    #[test]
    fn square_block_skew() {
        let m = check(25, |i, j| u32::from(i / 5 == j / 5));
        assert!(m.comm_rounds() <= 12);
    }

    #[test]
    fn non_square_sizes() {
        for n in [5, 6, 8, 10, 12, 15, 20] {
            let m = check(n, |i, j| u32::from((i * 7 + j) % 3 == 0));
            assert!(m.comm_rounds() <= 12, "n={n}: {} rounds", m.comm_rounds());
        }
    }

    #[test]
    fn tiny_sizes() {
        for n in [1, 2, 3] {
            let m = check(n, |_, _| 1);
            assert!(m.comm_rounds() <= 12, "n={n}");
        }
    }

    #[test]
    fn work_is_quasilinear_compared_to_basic() {
        // The optimized variant's per-node work must undercut the basic
        // algorithm's markedly once n is nontrivial.
        let n = 64;
        let instance = RoutingInstance::from_demands(n, |_, _| 1).unwrap();
        let opt = route_optimized(&instance).unwrap().metrics;
        let basic = crate::routing::route_deterministic(&instance)
            .unwrap()
            .metrics;
        assert!(
            opt.max_node_steps() * 2 < basic.max_node_steps(),
            "optimized {} vs basic {}",
            opt.max_node_steps(),
            basic.max_node_steps()
        );
    }
}

use crate::common::CommonCache;
use crate::error::SimError;
use crate::inbox::Inbox;
use crate::metrics::{Metrics, RoundMetrics};
use crate::node::NodeId;
use crate::payload::Payload;
use crate::spec::CliqueSpec;
use crate::work::WorkMeter;

/// The result of a node's round handler.
#[derive(Debug)]
pub enum Step<O> {
    /// The node continues into the next round.
    Continue,
    /// The node has produced its output and leaves the protocol. It must
    /// not be sent any further messages.
    Done(O),
}

/// The message-type-independent part of a node's per-round context:
/// identity, round number, common-knowledge cache and work accounting.
///
/// Sub-protocol drivers (the communication primitives of `cc-primitives`)
/// take a `&mut BaseCtx` so they can be composed under any parent message
/// type.
pub struct BaseCtx<'a> {
    me: NodeId,
    n: usize,
    round: u64,
    common: &'a CommonCache,
    work: &'a mut WorkMeter,
}

impl<'a> BaseCtx<'a> {
    /// This node's identity.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the clique.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round number (0 during [`NodeMachine::on_start`], then
    /// 1, 2, … for successive communication rounds).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Iterates over all node ids of the clique, including `me`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId::new)
    }

    /// The shared common-knowledge computation cache (see
    /// [`CommonCache`]).
    #[inline]
    pub fn common(&self) -> &CommonCache {
        self.common
    }

    /// Charges analytical local-computation steps to this node (see
    /// [`WorkMeter`]).
    #[inline]
    pub fn charge_work(&mut self, steps: u64) {
        self.work.charge(steps);
    }

    /// Notes this node's current live memory in machine words (high-water
    /// mark is kept).
    #[inline]
    pub fn note_mem(&mut self, words: u64) {
        self.work.note_mem(words);
    }

    /// Reborrows this context with the same identity (for handing to a
    /// sub-protocol while retaining the original).
    pub fn reborrow(&mut self) -> BaseCtx<'_> {
        BaseCtx {
            me: self.me,
            n: self.n,
            round: self.round,
            common: self.common,
            work: self.work,
        }
    }

    /// Reborrows this context with a different identity and clique size,
    /// for running a protocol instance embedded in a sub-clique (e.g. the
    /// `⌊√n⌋²`-node instances of Theorem 3.7's general-`n` decomposition).
    ///
    /// The common-knowledge cache and work meter are shared with the
    /// parent context; only `me`/`n` are overridden. The caller translates
    /// message addresses between the virtual and global id spaces.
    pub fn virtualized(&mut self, me: NodeId, n: usize) -> BaseCtx<'_> {
        BaseCtx {
            me,
            n,
            round: self.round,
            common: self.common,
            work: self.work,
        }
    }
}

/// Per-node view of the clique during one round, through which a node
/// observes its identity, the round number, and sends messages.
///
/// A `Ctx` is handed to [`NodeMachine::on_start`] and
/// [`NodeMachine::on_round`]; messages sent through it are delivered at the
/// *next* synchronous round.
pub struct Ctx<'a, M> {
    base: BaseCtx<'a>,
    outbox: &'a mut Vec<(NodeId, M)>,
}

impl<'a, M> Ctx<'a, M> {
    /// This node's identity.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.base.me
    }

    /// Number of nodes in the clique.
    #[inline]
    pub fn n(&self) -> usize {
        self.base.n
    }

    /// The current round number (0 during [`NodeMachine::on_start`], then
    /// 1, 2, … for successive communication rounds).
    #[inline]
    pub fn round(&self) -> u64 {
        self.base.round
    }

    /// Iterates over all node ids of the clique, including `me`.
    ///
    /// Following the paper's convention (§2), nodes may send messages to
    /// themselves like to any other node; self-messages traverse a
    /// zero-cost loopback but are still counted and budget-checked like
    /// edge messages for uniformity.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.base.nodes()
    }

    /// Queues `msg` for delivery to `dst` in the next round.
    #[inline]
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.outbox.push((dst, msg));
    }

    /// Queues the same message for every node (including `me`).
    ///
    /// Performs `n - 1` clones: the original value travels to the last
    /// node instead of being cloned a redundant `n`-th time, and the
    /// outbox is grown once up front.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let n = self.base.n;
        if n == 0 {
            return;
        }
        self.outbox.reserve(n);
        for v in 0..n - 1 {
            self.outbox.push((NodeId::new(v), msg.clone()));
        }
        self.outbox.push((NodeId::new(n - 1), msg));
    }

    /// The shared common-knowledge computation cache (see
    /// [`CommonCache`]).
    #[inline]
    pub fn common(&self) -> &CommonCache {
        self.base.common
    }

    /// Charges analytical local-computation steps to this node (see
    /// [`WorkMeter`]).
    #[inline]
    pub fn charge_work(&mut self, steps: u64) {
        self.base.charge_work(steps);
    }

    /// Notes this node's current live memory in machine words (high-water
    /// mark is kept).
    #[inline]
    pub fn note_mem(&mut self, words: u64) {
        self.base.note_mem(words);
    }

    /// Borrows the message-type-independent context, for driving
    /// sub-protocol primitives.
    #[inline]
    pub fn base(&mut self) -> &mut BaseCtx<'a> {
        &mut self.base
    }

    /// Splits into the base context and the raw outbox, for drivers that
    /// need to emit parent-wrapped messages while borrowing the base.
    #[inline]
    pub fn split(&mut self) -> (&mut BaseCtx<'a>, &mut Vec<(NodeId, M)>) {
        (&mut self.base, self.outbox)
    }

    /// Assembles a context from a reborrowed base and an external outbox —
    /// how a parent machine drives an embedded [`NodeMachine`] whose
    /// message type it wraps (e.g. Algorithm 4 running the Theorem 3.7
    /// router as its Step 6).
    pub fn from_parts(base: BaseCtx<'a>, outbox: &'a mut Vec<(NodeId, M)>) -> Self {
        Ctx { base, outbox }
    }
}

/// A per-node protocol state machine.
///
/// One machine instance exists per node. The engine calls
/// [`on_start`](NodeMachine::on_start) once before the first round, then
/// [`on_round`](NodeMachine::on_round) once per synchronous round with the
/// messages received in that round, until every machine returns
/// [`Step::Done`].
///
/// Machines, their messages and their outputs are `Send`: the engine's
/// contract is that every node is an *independent* state machine touching
/// only its own state, so a round may step disjoint subsets of nodes on
/// different workers (see [`ExecMode`](crate::ExecMode)). Shared
/// deterministic computations go through the [`CommonCache`], which is
/// synchronized.
pub trait NodeMachine: Send {
    /// Message type exchanged by this protocol.
    type Msg: Payload;
    /// Per-node output produced on completion.
    type Output: Send;

    /// Called once before the first round; typically queues the round-1
    /// sends. The default does nothing.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called once per round with this round's inbox. Messages queued on
    /// `ctx` are delivered next round.
    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        inbox: &mut Inbox<Self::Msg>,
    ) -> Step<Self::Output>;
}

/// The outcome of a completed run.
///
/// Compares by value (given `O: PartialEq`), so runs under different
/// [`ExecMode`](crate::ExecMode)s can be asserted bit-identical.
#[derive(Debug, PartialEq)]
pub struct RunReport<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Communication and computation measurements.
    pub metrics: Metrics,
}

pub(crate) enum Slot<O> {
    Running,
    Finished(O),
}

/// One worker's share of the engine state: a contiguous range of nodes
/// (`base..base + len`) together with everything a round of `on_round`
/// calls touches — machines, completion slots, message buffers and work
/// meters.
///
/// Chunks are the unit of hand-off to the stepping workers: the driving
/// thread owns every chunk during delivery and sends ownership to the
/// session's worker pool for the stepping half of a round. A chunk is a
/// handful of `Vec` headers, so moving one through a channel costs a
/// small memcpy — no per-node cloning and no allocation.
pub(crate) struct NodeChunk<N: NodeMachine> {
    /// Global node id of the first node in this chunk.
    pub(crate) base: usize,
    pub(crate) machines: Vec<N>,
    pub(crate) slots: Vec<Slot<N::Output>>,
    pub(crate) inboxes: Vec<Vec<(NodeId, N::Msg)>>,
    pub(crate) outboxes: Vec<Vec<(NodeId, N::Msg)>>,
    pub(crate) work: Vec<WorkMeter>,
}

impl<N: NodeMachine> NodeChunk<N> {
    /// Builds a chunk, drawing inbox/outbox buffers from `pile` — a stash
    /// of cleared, capacity-retaining vectors recycled from earlier runs
    /// (see [`CliqueSession`](crate::CliqueSession)). A session's first
    /// run of a message type gets an empty pile and allocates lazily as
    /// rounds fill the buffers.
    pub(crate) fn new(
        base: usize,
        machines: Vec<N>,
        pile: &mut Vec<Vec<(NodeId, N::Msg)>>,
    ) -> Self {
        let len = machines.len();
        NodeChunk {
            base,
            machines,
            slots: (0..len).map(|_| Slot::Running).collect(),
            inboxes: (0..len).map(|_| pile.pop().unwrap_or_default()).collect(),
            outboxes: (0..len).map(|_| pile.pop().unwrap_or_default()).collect(),
            work: vec![WorkMeter::new(); len],
        }
    }

    /// Returns every message buffer (cleared, capacity intact) to `pile`
    /// so the next run on the same session skips the warm-up allocations.
    /// Works on failed runs too: buffers may still hold undelivered
    /// messages, which are dropped here.
    pub(crate) fn recycle_into(&mut self, pile: &mut Vec<Vec<(NodeId, N::Msg)>>) {
        for mut buf in self.inboxes.drain(..).chain(self.outboxes.drain(..)) {
            buf.clear();
            pile.push(buf);
        }
    }

    /// An empty chunk left behind while the real one is out on a worker.
    /// Allocation-free: empty `Vec`s don't allocate.
    pub(crate) fn placeholder() -> Self {
        NodeChunk {
            base: 0,
            machines: Vec::new(),
            slots: Vec::new(),
            inboxes: Vec::new(),
            outboxes: Vec::new(),
            work: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.machines.len()
    }

    /// Runs the round-0 `on_start` hooks for every node in the chunk.
    fn start(&mut self, n: usize, common: &CommonCache) {
        for k in 0..self.machines.len() {
            let mut ctx = Ctx {
                base: BaseCtx {
                    me: NodeId::new(self.base + k),
                    n,
                    round: 0,
                    common,
                    work: &mut self.work[k],
                },
                outbox: &mut self.outboxes[k],
            };
            self.machines[k].on_start(&mut ctx);
        }
    }

    /// Steps every running node in the chunk for one round. Each node
    /// touches only its own machine, slot, buffers and work meter, so
    /// disjoint chunks are safe to run on separate workers; the shared
    /// [`CommonCache`] is internally synchronized. Returns the number of
    /// nodes that finished this round.
    pub(crate) fn step(&mut self, round: u64, n: usize, common: &CommonCache) -> usize {
        let mut completions = 0usize;
        for k in 0..self.machines.len() {
            if matches!(self.slots[k], Slot::Finished(_)) {
                debug_assert!(self.inboxes[k].is_empty());
                continue;
            }
            // Inboxes were filled in ascending src order already.
            let mut inbox = Inbox::from_sorted(std::mem::take(&mut self.inboxes[k]));
            let mut ctx = Ctx {
                base: BaseCtx {
                    me: NodeId::new(self.base + k),
                    n,
                    round,
                    common,
                    work: &mut self.work[k],
                },
                outbox: &mut self.outboxes[k],
            };
            match self.machines[k].on_round(&mut ctx, &mut inbox) {
                Step::Continue => {}
                Step::Done(out) => {
                    self.slots[k] = Slot::Finished(out);
                    completions += 1;
                }
            }
            // Recycle the inbox buffer (and its capacity) for the next round.
            let mut items = inbox.into_items();
            items.clear();
            self.inboxes[k] = items;
        }
        completions
    }
}

/// The pre-optimization engine, kept as the determinism oracle
/// ([`ExecMode::SeedReference`](crate::ExecMode::SeedReference)):
/// comparison-sort delivery with a front-shifting `drain` (quadratic in
/// per-source fan-out) and fresh inbox allocations every round. It
/// allocates everything per run by design; a
/// [`CliqueSession`](crate::CliqueSession) only lends it the
/// common-knowledge cache.
#[allow(clippy::needless_range_loop)] // preserved verbatim from the seed
pub(crate) fn run_seed<N: NodeMachine>(
    spec: &CliqueSpec,
    mut machines: Vec<N>,
    common: &CommonCache,
) -> Result<RunReport<N::Output>, SimError> {
    let n = spec.n();
    let mut metrics = Metrics::new(spec.records_edge_histogram(), n);
    let mut slots: Vec<Slot<N::Output>> = (0..n).map(|_| Slot::Running).collect();
    let mut outboxes: Vec<Vec<(NodeId, N::Msg)>> = (0..n).map(|_| Vec::new()).collect();

    // Round 0: start hooks queue the round-1 sends.
    for (i, machine) in machines.iter_mut().enumerate() {
        let mut ctx = Ctx {
            base: BaseCtx {
                me: NodeId::new(i),
                n,
                round: 0,
                common,
                work: metrics.node_work_mut(i),
            },
            outbox: &mut outboxes[i],
        };
        machine.on_start(&mut ctx);
    }

    let mut round: u64 = 0;
    let mut silent_rounds: u64 = 0;
    // Scratch for the per-batch destination grouping below; hoisted so
    // steady-state rounds group without allocating.
    let mut group_scratch = crate::radix::RadixScratch::new();
    loop {
        let all_done = slots.iter().all(|s| matches!(s, Slot::Finished(_)));
        if all_done {
            // Someone sent a message but everyone already finished.
            // Classified exactly like the optimized engine, so both
            // engines report the identical error (see
            // `final_round_violation`).
            if let Some(err) = final_round_violation(
                round,
                n,
                outboxes.iter().enumerate().map(|(i, o)| (i, o.as_slice())),
            ) {
                return Err(err);
            }
            break;
        }

        round += 1;
        if round > spec.max_rounds() {
            return Err(SimError::TooManyRounds {
                limit: spec.max_rounds(),
            });
        }

        // Deliver: enforce per-edge budgets, account metrics.
        let mut round_metrics = RoundMetrics::default();
        let mut inboxes: Vec<Vec<(NodeId, N::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        for src_idx in 0..n {
            let mut batch = std::mem::take(&mut outboxes[src_idx]);
            if batch.is_empty() {
                continue;
            }
            let src = NodeId::new(src_idx);
            // Stable radix scatter groups messages per destination while
            // preserving per-destination send order — byte-identical
            // batch order to the stable comparison sort it replaced, so
            // the validation scan below (ascending destinations, minimum
            // out-of-range destination last) is unchanged.
            crate::radix::group_by_destination(&mut batch, n, &mut group_scratch);
            let i = 0;
            while i < batch.len() {
                let dst = batch[i].0;
                if dst.index() >= n {
                    return Err(SimError::DestinationOutOfRange {
                        src,
                        dst: dst.index(),
                        n,
                    });
                }
                let mut edge_bits = 0u64;
                let mut j = i;
                while j < batch.len() && batch[j].0 == dst {
                    edge_bits += batch[j].1.size_bits(n);
                    j += 1;
                }
                if edge_bits > spec.bits_per_edge() {
                    return Err(SimError::BudgetExceeded {
                        round,
                        src,
                        dst,
                        bits: edge_bits,
                        budget: spec.bits_per_edge(),
                    });
                }
                if matches!(slots[dst.index()], Slot::Finished(_)) {
                    return Err(SimError::MessageToFinishedNode { round, src, dst });
                }
                round_metrics.messages += (j - i) as u64;
                round_metrics.bits += edge_bits;
                round_metrics.busy_edges += 1;
                round_metrics.max_edge_bits = round_metrics.max_edge_bits.max(edge_bits);
                if let Some(h) = metrics.histogram_mut() {
                    h.record(edge_bits);
                }
                for (d, msg) in batch.drain(i..j) {
                    debug_assert_eq!(d, dst);
                    inboxes[dst.index()].push((src, msg));
                }
                // After drain, element i is the next distinct destination.
            }
        }
        let delivered_any = round_metrics.messages > 0;
        metrics.push_round(round_metrics);

        // Step every running node.
        let mut completions = 0usize;
        for i in 0..n {
            if matches!(slots[i], Slot::Finished(_)) {
                debug_assert!(inboxes[i].is_empty());
                continue;
            }
            // Inboxes were filled in ascending src order already.
            let mut inbox = Inbox::from_sorted(std::mem::take(&mut inboxes[i]));
            let mut ctx = Ctx {
                base: BaseCtx {
                    me: NodeId::new(i),
                    n,
                    round,
                    common,
                    work: metrics.node_work_mut(i),
                },
                outbox: &mut outboxes[i],
            };
            match machines[i].on_round(&mut ctx, &mut inbox) {
                Step::Continue => {}
                Step::Done(out) => {
                    slots[i] = Slot::Finished(out);
                    completions += 1;
                }
            }
        }

        if !delivered_any && completions == 0 {
            silent_rounds += 1;
            if silent_rounds > spec.max_silent_rounds() {
                let finished = slots
                    .iter()
                    .filter(|s| matches!(s, Slot::Finished(_)))
                    .count();
                return Err(SimError::Stalled {
                    round,
                    finished,
                    total: n,
                });
            }
        } else {
            silent_rounds = 0;
        }
    }

    let outputs = slots
        .into_iter()
        .map(|s| match s {
            Slot::Finished(o) => o,
            Slot::Running => unreachable!("loop exits only when all nodes finished"),
        })
        .collect();
    Ok(RunReport { outputs, metrics })
}

/// The fixed partition of `n` nodes into `count` contiguous chunks,
/// balanced so the chunk count always equals the worker count the
/// [`ExecMode`](crate::ExecMode) resolved to: the first `n % count`
/// chunks hold one node more than the rest. Provides the O(1) global-id → (chunk, offset)
/// mapping the delivery pass needs.
#[derive(Clone, Copy)]
pub(crate) struct ChunkSplit {
    /// Number of chunks.
    count: usize,
    /// Chunks `0..big` hold `big_size` nodes; the rest hold `big_size - 1`.
    big: usize,
    /// `⌈n / count⌉`, the size of the first `big` chunks.
    big_size: usize,
    /// `big * big_size`: the first global id in the smaller chunks' range.
    big_span: usize,
}

impl ChunkSplit {
    pub(crate) fn new(n: usize, workers: usize) -> Self {
        let count = workers.clamp(1, n.max(1));
        let big = n % count;
        let big_size = n / count + 1;
        ChunkSplit {
            count,
            big,
            big_size,
            big_span: big * big_size,
        }
    }

    fn count(&self) -> usize {
        self.count
    }

    /// Chunk sizes in chunk order (they sum to `n`).
    fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.count).map(|ci| {
            if ci < self.big {
                self.big_size
            } else {
                self.big_size - 1
            }
        })
    }

    /// Maps a global node id to its `(chunk, offset)` coordinates.
    #[inline]
    fn locate(&self, d: usize) -> (usize, usize) {
        if self.count == 1 {
            (0, d)
        } else if d < self.big_span {
            (d / self.big_size, d % self.big_size)
        } else {
            let d = d - self.big_span;
            let small_size = self.big_size - 1;
            (self.big + d / small_size, d % small_size)
        }
    }
}

/// Partitions `machines` into the contiguous chunks of `split`, drawing
/// message buffers from `pile` (see [`NodeChunk::new`]).
pub(crate) fn build_chunks<N: NodeMachine>(
    machines: Vec<N>,
    split: &ChunkSplit,
    pile: &mut Vec<Vec<(NodeId, N::Msg)>>,
) -> Vec<NodeChunk<N>> {
    let mut remaining = machines.into_iter();
    let mut chunks: Vec<NodeChunk<N>> = Vec::with_capacity(split.count());
    let mut base = 0;
    for len in split.sizes() {
        chunks.push(NodeChunk::new(
            base,
            remaining.by_ref().take(len).collect(),
            pile,
        ));
        base += len;
    }
    debug_assert!(remaining.next().is_none());
    chunks
}

/// The single-worker stepping strategy: every chunk is stepped inline on
/// the driving thread.
pub(crate) fn step_inline<N: NodeMachine>(
    n: usize,
) -> impl FnMut(u64, &mut [NodeChunk<N>], &CommonCache) -> usize {
    move |round, chunks, common| chunks.iter_mut().map(|c| c.step(round, n, common)).sum()
}

/// The optimized engine's round loop, generic over the stepping strategy:
/// `step` runs `on_round` for every running node across all chunks and
/// returns the number of completions. Delivery, violation detection and
/// metrics always run on the driving thread, in ascending node order, so
/// every stepping strategy observes — and produces — identical state.
///
/// Chunks are borrowed, not consumed: on return — success or failure —
/// the caller still owns every chunk and can recycle its message buffers
/// into a session pile ([`NodeChunk::recycle_into`]). On success the
/// outputs and work meters have been drained out of the chunks into the
/// returned [`RunReport`].
pub(crate) fn run_rounds<N: NodeMachine>(
    spec: &CliqueSpec,
    common: &CommonCache,
    chunks: &mut [NodeChunk<N>],
    split: ChunkSplit,
    scratch: &mut DeliveryScratch,
    mut step: impl FnMut(u64, &mut [NodeChunk<N>], &CommonCache) -> usize,
) -> Result<RunReport<N::Output>, SimError> {
    let n = spec.n();
    let mut metrics = Metrics::new(spec.records_edge_histogram(), 0);

    // Round 0: start hooks queue the round-1 sends.
    for chunk in chunks.iter_mut() {
        chunk.start(n, common);
    }

    let mut round: u64 = 0;
    let mut silent_rounds: u64 = 0;
    loop {
        let all_done = chunks
            .iter()
            .all(|c| c.slots.iter().all(|s| matches!(s, Slot::Finished(_))));
        if all_done {
            // Someone sent a message but everyone already finished.
            if let Some(err) = final_round_violation(
                round,
                n,
                chunks.iter().flat_map(|c| {
                    c.outboxes
                        .iter()
                        .enumerate()
                        .map(|(k, o)| (c.base + k, o.as_slice()))
                }),
            ) {
                return Err(err);
            }
            break;
        }

        round += 1;
        if round > spec.max_rounds() {
            return Err(SimError::TooManyRounds {
                limit: spec.max_rounds(),
            });
        }

        let round_metrics = deliver_round(round, spec, chunks, &split, scratch, &mut metrics)?;
        let delivered_any = round_metrics.messages > 0;
        metrics.push_round(round_metrics);

        let completions = step(round, chunks, common);

        if !delivered_any && completions == 0 {
            silent_rounds += 1;
            if silent_rounds > spec.max_silent_rounds() {
                let finished = chunks
                    .iter()
                    .flat_map(|c| c.slots.iter())
                    .filter(|s| matches!(s, Slot::Finished(_)))
                    .count();
                return Err(SimError::Stalled {
                    round,
                    finished,
                    total: n,
                });
            }
        } else {
            silent_rounds = 0;
        }
    }

    let mut work = Vec::with_capacity(n);
    let mut outputs = Vec::with_capacity(n);
    for chunk in chunks.iter_mut() {
        work.append(&mut chunk.work);
        for slot in chunk.slots.drain(..) {
            match slot {
                Slot::Finished(o) => outputs.push(o),
                Slot::Running => unreachable!("loop exits only when all nodes finished"),
            }
        }
    }
    metrics.set_node_work(work);
    Ok(RunReport { outputs, metrics })
}

/// Classifies messages still queued once every node has finished,
/// honoring the engine-wide lowest-`(src, dst)` precedence: the lowest-id
/// sender with a nonempty outbox is reported, with its lowest queued
/// in-range destination ([`SimError::MessageToFinishedNode`] — any
/// in-range destination is by definition a finished node here). When that
/// sender queued *only* out-of-range destinations, the violation is an
/// addressing bug, not a late send, and is classified as
/// [`SimError::DestinationOutOfRange`] on the lowest such destination —
/// matching the delivery pass, where out-of-range destinations order
/// after all in-range ones of the same sender.
fn final_round_violation<'a, M: 'a>(
    round: u64,
    n: usize,
    outboxes: impl Iterator<Item = (usize, &'a [(NodeId, M)])>,
) -> Option<SimError> {
    for (src_idx, queued) in outboxes {
        if queued.is_empty() {
            continue;
        }
        let src = NodeId::new(src_idx);
        let min_in_range = queued
            .iter()
            .map(|(dst, _)| *dst)
            .filter(|dst| dst.index() < n)
            .min();
        return Some(match min_in_range {
            Some(dst) => SimError::MessageToFinishedNode {
                round: round + 1,
                src,
                dst,
            },
            None => {
                let dst = queued
                    .iter()
                    .map(|(dst, _)| dst.index())
                    .min()
                    .expect("outbox is nonempty");
                SimError::DestinationOutOfRange { src, dst, n }
            }
        });
    }
    None
}

/// Per-destination counting buffers, allocated once per
/// [`CliqueSession`](crate::CliqueSession), which keeps them across runs,
/// and zeroed via the `touched` list, so delivery does no per-round
/// allocation and no comparison sorting.
#[derive(Default)]
pub(crate) struct DeliveryScratch {
    /// Bits queued to each destination by the sender being processed.
    edge_bits: Vec<u64>,
    /// Messages queued to each destination by the sender being processed.
    msg_count: Vec<u64>,
    /// Destinations the current sender actually touched.
    touched: Vec<u32>,
}

impl DeliveryScratch {
    /// Re-sizes the counting buffers for an `n`-node run, keeping their
    /// allocations. The per-sender zeroing discipline (only `touched`
    /// entries are ever nonzero, and they are cleared before the sender
    /// finishes — including on the [`SimError`] paths) means entries are
    /// normally already zero, so growing or shrinking never needs a full
    /// memset. The exception is a *panic* escaping mid-delivery (e.g. a
    /// user [`Payload::size_bits`] unwinding out of the counting pass),
    /// which leaves the entries recorded in `touched` dirty; they are
    /// zeroed here so a recovered session never carries stale counters —
    /// which would silently skip validation and metrics for those
    /// destinations — into its next run.
    pub(crate) fn reset(&mut self, n: usize) {
        for &d in &self.touched {
            self.edge_bits[d as usize] = 0;
            self.msg_count[d as usize] = 0;
        }
        self.touched.clear();
        debug_assert!(self.edge_bits.iter().all(|&b| b == 0));
        debug_assert!(self.msg_count.iter().all(|&c| c == 0));
        self.edge_bits.resize(n, 0);
        self.msg_count.resize(n, 0);
    }
}

/// Moves one round of messages from outboxes to inboxes with a counting
/// pass per sender (destinations are perfect keys in `0..n`).
///
/// Senders are processed in ascending order and each sender's violations
/// are resolved to the lowest failing destination, so the documented
/// `Inbox` guarantee — ascending sender ids, per-sender send order —
/// holds bit-for-bit, and the first model violation reported is the
/// lowest `(src, dst)` pair, with the seed engine's per-edge precedence
/// (out-of-range destinations order after all valid ones, budget before
/// finished-node on the same edge).
///
/// State is chunked for worker hand-off; [`ChunkSplit::locate`] maps a
/// global node id to its chunk coordinates in O(1) (the single-chunk
/// sequential layout skips the division).
fn deliver_round<N: NodeMachine>(
    round: u64,
    spec: &CliqueSpec,
    chunks: &mut [NodeChunk<N>],
    split: &ChunkSplit,
    scratch: &mut DeliveryScratch,
    metrics: &mut Metrics,
) -> Result<RoundMetrics, SimError> {
    let n = spec.n();
    let budget = spec.bits_per_edge();
    let locate = |d: usize| split.locate(d);
    let mut rm = RoundMetrics::default();
    for ci in 0..chunks.len() {
        let base = chunks[ci].base;
        for li in 0..chunks[ci].len() {
            if chunks[ci].outboxes[li].is_empty() {
                continue;
            }
            let src = NodeId::new(base + li);
            // Take the outbox so pushes into this chunk's inboxes don't
            // alias it; its (capacity-retaining) return happens after the
            // move pass.
            let mut batch = std::mem::take(&mut chunks[ci].outboxes[li]);

            // Counting pass: bucket fan-out and bit loads by destination.
            let mut min_out_of_range: Option<usize> = None;
            for (dst, msg) in &batch {
                let d = dst.index();
                if d >= n {
                    min_out_of_range = Some(min_out_of_range.map_or(d, |m| m.min(d)));
                    continue;
                }
                if scratch.msg_count[d] == 0 {
                    scratch.touched.push(d as u32);
                }
                scratch.msg_count[d] += 1;
                scratch.edge_bits[d] += msg.size_bits(n);
            }
            // Validation pass over the touched destinations (no sort needed:
            // the reported violation is the *lowest* failing destination, and
            // metric/histogram accumulation is order-insensitive — counters
            // add, maxima max, the histogram is a multiset). On failure the
            // whole run's metrics are discarded, so over-accumulating before
            // spotting a violation is harmless.
            let mut failure: Option<SimError> = None;
            for &d32 in &scratch.touched {
                let d = d32 as usize;
                let bits = scratch.edge_bits[d];
                let (dci, dli) = locate(d);
                let edge_failure = if bits > budget {
                    // Budget outranks finished-node on the same edge.
                    Some(SimError::BudgetExceeded {
                        round,
                        src,
                        dst: NodeId::new(d),
                        bits,
                        budget,
                    })
                } else if matches!(chunks[dci].slots[dli], Slot::Finished(_)) {
                    Some(SimError::MessageToFinishedNode {
                        round,
                        src,
                        dst: NodeId::new(d),
                    })
                } else {
                    None
                };
                if let Some(err) = edge_failure {
                    let lower = match &failure {
                        Some(
                            SimError::BudgetExceeded { dst, .. }
                            | SimError::MessageToFinishedNode { dst, .. },
                        ) => d < dst.index(),
                        _ => true,
                    };
                    if lower {
                        failure = Some(err);
                    }
                    continue;
                }
                rm.messages += scratch.msg_count[d];
                rm.bits += bits;
                rm.busy_edges += 1;
                rm.max_edge_bits = rm.max_edge_bits.max(bits);
                if let Some(h) = metrics.histogram_mut() {
                    h.record(bits);
                }
            }
            if failure.is_none() {
                // An out-of-range destination compares greater than every valid
                // one (NodeId order), so it is only reported when no valid edge
                // failed.
                if let Some(d) = min_out_of_range {
                    failure = Some(SimError::DestinationOutOfRange { src, dst: d, n });
                }
            }

            // Zero only the touched scratch entries before returning or moving
            // on to the next sender.
            for &d32 in &scratch.touched {
                scratch.edge_bits[d32 as usize] = 0;
                scratch.msg_count[d32 as usize] = 0;
            }
            scratch.touched.clear();
            if let Some(err) = failure {
                return Err(err);
            }

            // Move pass: straight into the destination inboxes, preserving
            // per-destination send order; ascending global node order keeps
            // every inbox sorted by sender. `drain` retains the outbox
            // capacity for the round's sends.
            for (dst, msg) in batch.drain(..) {
                let (dci, dli) = locate(dst.index());
                chunks[dci].inboxes[dli].push((src, msg));
            }
            chunks[ci].outboxes[li] = batch;
        }
    }
    Ok(rm)
}

/// Runs one protocol instance on a fresh
/// [`CliqueSession`](crate::CliqueSession), building machines with a
/// closure of the node id. The session — worker threads included — is
/// dropped before this returns, also when a node panics.
///
/// # Errors
///
/// See [`CliqueSession::run`](crate::CliqueSession::run).
pub fn run_protocol<N, F>(spec: CliqueSpec, make: F) -> Result<RunReport<N::Output>, SimError>
where
    N: NodeMachine + 'static,
    N::Msg: 'static,
    N::Output: 'static,
    F: FnMut(NodeId) -> N,
{
    crate::CliqueSession::new().run_protocol(spec, make)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::word_bits;

    /// All-to-all identity exchange: 1 round.
    struct AllToAll;

    impl NodeMachine for AllToAll {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let me = ctx.me().index() as u64;
            ctx.broadcast(me);
        }

        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
            Step::Done(inbox.drain().map(|(_, m)| m).sum())
        }
    }

    #[test]
    fn all_to_all_takes_one_round() {
        let n = 10;
        let report = run_protocol(CliqueSpec::new(n).unwrap(), |_| AllToAll).unwrap();
        assert_eq!(report.metrics.comm_rounds(), 1);
        assert_eq!(report.metrics.total_messages(), (n * n) as u64);
        let expected: u64 = (0..n as u64).sum();
        assert!(report.outputs.iter().all(|&s| s == expected));
    }

    /// A two-phase protocol: ping a partner, then reply; checks round
    /// counting and per-round metrics.
    struct PingPong {
        sent_reply: bool,
    }

    impl NodeMachine for PingPong {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let partner = NodeId::new((ctx.me().index() + 1) % ctx.n());
            ctx.send(partner, 1);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
            let got: u64 = inbox.drain().map(|(_, m)| m).sum();
            if self.sent_reply {
                return Step::Done(got);
            }
            self.sent_reply = true;
            let partner = NodeId::new((ctx.me().index() + ctx.n() - 1) % ctx.n());
            ctx.send(partner, got + 1);
            Step::Continue
        }
    }

    #[test]
    fn ping_pong_takes_two_rounds() {
        let n = 6;
        let report = run_protocol(CliqueSpec::new(n).unwrap(), |_| PingPong {
            sent_reply: false,
        })
        .unwrap();
        assert_eq!(report.metrics.comm_rounds(), 2);
        assert!(report.outputs.iter().all(|&o| o == 2));
    }

    /// Over-budget sender triggers `BudgetExceeded`.
    struct Flooder;

    impl NodeMachine for Flooder {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            // Send many words over a single edge.
            for k in 0..64 {
                ctx.send(NodeId::new(0), k);
            }
        }

        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
            Step::Done(())
        }
    }

    #[test]
    fn budget_violation_is_detected() {
        let n = 4;
        let spec = CliqueSpec::new(n).unwrap().with_budget_words(8);
        let err = run_protocol(spec, |_| Flooder).unwrap_err();
        match err {
            SimError::BudgetExceeded { bits, budget, .. } => {
                assert_eq!(bits, 64 * word_bits(n));
                assert_eq!(budget, 8 * word_bits(n));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A protocol that never finishes and never sends: must stall, not hang.
    struct Sleeper;

    impl NodeMachine for Sleeper {
        type Msg = u64;
        type Output = ();

        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
            Step::Continue
        }
    }

    #[test]
    fn silent_nonterminating_protocol_stalls() {
        let err = run_protocol(CliqueSpec::new(3).unwrap(), |_| Sleeper).unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }), "{err:?}");
    }

    /// Sending to a node that already finished is an addressing bug.
    struct LateSender {
        me: NodeId,
    }

    impl NodeMachine for LateSender {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.me.index() == 1 {
                ctx.send(NodeId::new(0), 7);
            }
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
            let _ = inbox.drain().count();
            if self.me.index() == 0 {
                // Node 0 finishes immediately.
                return Step::Done(());
            }
            if ctx.round() == 2 {
                return Step::Done(());
            }
            // Round 1: node 1 sends to the (about to be) finished node 0.
            ctx.send(NodeId::new(0), 9);
            Step::Continue
        }
    }

    #[test]
    fn message_to_finished_node_is_detected() {
        let err = run_protocol(CliqueSpec::new(2).unwrap(), |me| LateSender { me }).unwrap_err();
        assert!(
            matches!(err, SimError::MessageToFinishedNode { .. }),
            "{err:?}"
        );
    }

    /// Out-of-range destinations are rejected.
    struct WildSender;

    impl NodeMachine for WildSender {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(NodeId::new(ctx.n() + 5), 1);
        }

        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
            Step::Done(())
        }
    }

    #[test]
    fn out_of_range_destination_is_detected() {
        let err = run_protocol(CliqueSpec::new(3).unwrap(), |_| WildSender).unwrap_err();
        assert!(
            matches!(err, SimError::DestinationOutOfRange { .. }),
            "{err:?}"
        );
    }

    /// A zero-communication protocol completes in zero communication rounds.
    struct Loner;

    impl NodeMachine for Loner {
        type Msg = ();
        type Output = u32;

        fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &mut Inbox<()>) -> Step<u32> {
            Step::Done(ctx.me().raw())
        }
    }

    #[test]
    fn local_only_protocol_uses_zero_comm_rounds() {
        let report = run_protocol(CliqueSpec::new(5).unwrap(), |_| Loner).unwrap();
        assert_eq!(report.metrics.comm_rounds(), 0);
        assert_eq!(report.outputs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chunk_split_is_balanced_and_exact() {
        for n in [1usize, 2, 7, 8, 23, 64, 1024] {
            for workers in [1usize, 2, 3, 5, 7, 48, 2000] {
                let split = ChunkSplit::new(n, workers);
                // The chunk count must equal the resolved worker count
                // that `ExecMode::worker_threads` reports.
                assert_eq!(split.count(), workers.clamp(1, n));
                let sizes: Vec<usize> = split.sizes().collect();
                assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} workers={workers}");
                assert!(sizes.iter().all(|&s| s >= 1));
                assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
                // `locate` inverts the partition bounds exactly.
                let mut base = 0;
                for (ci, &len) in sizes.iter().enumerate() {
                    for off in 0..len {
                        assert_eq!(
                            split.locate(base + off),
                            (ci, off),
                            "n={n} workers={workers}"
                        );
                    }
                    base += len;
                }
            }
        }
    }

    #[test]
    fn machine_count_must_match() {
        let spec = CliqueSpec::new(3).unwrap();
        let err = crate::CliqueSession::new()
            .run(spec, vec![Loner, Loner])
            .unwrap_err();
        assert!(matches!(err, SimError::NodeCountMismatch { .. }));
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        struct Collector {
            senders: Vec<usize>,
        }
        impl NodeMachine for Collector {
            type Msg = u64;
            type Output = Vec<usize>;

            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.send(NodeId::new(0), ctx.me().index() as u64);
            }

            fn on_round(
                &mut self,
                _ctx: &mut Ctx<'_, u64>,
                inbox: &mut Inbox<u64>,
            ) -> Step<Vec<usize>> {
                self.senders = inbox.drain().map(|(s, _)| s.index()).collect();
                Step::Done(std::mem::take(&mut self.senders))
            }
        }
        let report = run_protocol(CliqueSpec::new(6).unwrap(), |_| Collector {
            senders: Vec::new(),
        })
        .unwrap();
        assert_eq!(report.outputs[0], vec![0, 1, 2, 3, 4, 5]);
    }
}

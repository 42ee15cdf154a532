//! Algorithm 4 / Theorem 4.5: sorting up to `n²` keys in **33 rounds**.
//!
//! This is Algorithm 4 with Theorem 5.4's router in Step 6; the paper
//! states 37 rounds with Theorem 3.7's. Step 6 is an instance of
//! Problem 3.1, which §5 of the same paper solves in 12 rounds instead of
//! 16, so the schedule is `0 + 1 + 8 + 2 + 0 + 12 + 8 + 2 = 33`:
//!
//! | rounds | step                                                        |
//! |--------|-------------------------------------------------------------|
//! | –      | Step 1 (local): sort input, select every `⌊√n⌋`-th key     |
//! | 1      | Step 2: the `i`-th selected key goes to node `i`            |
//! | 2–9    | Step 3: [`SubsetSort`] of the sample on the first group (8) |
//! | 10–11  | Step 4: delimiter dissemination via [`RelayBroadcast`] (2)  |
//! | –      | Step 5 (local): split input by the delimiters               |
//! | 12–23  | Step 6: route buckets to their groups — Theorem 5.4 (12)    |
//! | 24–31  | Step 7: parallel [`SubsetSort`] within every group (8)      |
//! | 32–33  | Step 8: order-preserving global redistribution (2)          |
//!
//! Step 8's two-round claim needs every node to know every node's
//! post-Step-7 holding, i.e. how many keys it will hold once its group
//! has sorted. Algorithm 3 has announced the per-member bucket counts
//! inside each group after its fourth round, so from then on every node
//! knows its own final holding although its keys are still in flight. Each
//! node broadcasts that one `O(log n)`-bit number to all `n` nodes in the
//! next round, *overlaid* on Step 7's traffic (one extra value per edge in
//! round 28). No round is added: by the time Step 7 ends, every node knows
//! every holding and hence the global rank of every key it holds. The
//! redistribution itself is a planning-free interval exchange: the key of
//! global rank `r` travels via relay `r mod n` to the node owning rank
//! `r`, with at most one message per edge in the second round.
//!
//! For general `n`, nodes are covered by `G = ⌈n/⌊√n⌋⌉` contiguous groups
//! (the last possibly smaller), with group 0 sorting the sample —
//! the paper's "work with subsets of size ⌊√n⌋" remark.

use crate::error::CoreError;
use crate::routing::{OGMsg, OptRouterMachine, RoutedMessage};
use crate::sorting::keys::{KeyBatch, TaggedKey};
use crate::sorting::subset_sort::{A3Msg, SubsetSort};
use cc_primitives::{Driver, NodeGroup, RbMsg, RelayBroadcast};
use cc_sim::util::{isqrt, sort_cost, word_bits};
use cc_sim::{
    CliqueSession, CliqueSpec, CommonScope, Ctx, Inbox, Metrics, NodeId, NodeMachine, Payload, Step,
};

/// Messages of the full sort.
#[derive(Clone, Debug)]
pub enum FsMsg {
    /// Step 2: a sampled key travelling to its sorter.
    Sample(TaggedKey),
    /// Step 3 traffic (sample sort on the first group).
    Sort1(A3Msg),
    /// Step 4 traffic (delimiter dissemination).
    Delim(RbMsg<TaggedKey>),
    /// Step 6 traffic (the embedded Theorem 5.4 router).
    Route(Box<OGMsg<KeyBatch>>),
    /// Step 7 traffic (parallel group sorts).
    Sort2(A3Msg),
    /// Overlaid holding broadcast feeding Step 8.
    Holding(u64),
    /// Step 8, first leg: rank-addressed key to relay `rank mod n`.
    R8a {
        /// Global rank of the key.
        rank: u64,
        /// The key.
        key: TaggedKey,
    },
    /// Step 8, second leg: delivery to the rank's owner.
    R8b {
        /// Global rank of the key.
        rank: u64,
        /// The key.
        key: TaggedKey,
    },
    /// Tiny-`n` gather path.
    Gather(TaggedKey),
}

impl Payload for FsMsg {
    fn size_bits(&self, n: usize) -> u64 {
        let w = word_bits(n);
        4 + match self {
            FsMsg::Sample(k) | FsMsg::Gather(k) => k.size_bits(n),
            FsMsg::Sort1(m) | FsMsg::Sort2(m) => m.size_bits(n),
            FsMsg::Delim(m) => m.size_bits(n),
            FsMsg::Route(m) => m.size_bits(n),
            FsMsg::Holding(_) => 2 * w,
            FsMsg::R8a { key, .. } | FsMsg::R8b { key, .. } => 2 * w + key.size_bits(n),
        }
    }
}

/// Per-node result of the full sort.
#[derive(Clone, Debug)]
pub struct NodeBatch {
    /// This node's slice of the global sorted order.
    pub keys: Vec<TaggedKey>,
    /// Global rank of `keys[0]`.
    pub offset: u64,
}

/// Per-node machine of the 33-round sort (Algorithm 4 with Theorem 5.4's
/// router in Step 6).
pub struct FullSortMachine {
    n: usize,
    /// Group side `⌊√n⌋` and count `⌈n/g⌉`.
    g: usize,
    num_groups: usize,
    me: NodeId,
    call: u32,
    keys: Vec<TaggedKey>,
    sort1: Option<SubsetSort>,
    rb: Option<RelayBroadcast<TaggedKey>>,
    delimiters: Vec<TaggedKey>,
    router: Option<OptRouterMachine<KeyBatch>>,
    sort2: Option<SubsetSort>,
    holdings: Vec<u64>,
    held: Vec<TaggedKey>,
    held_offset: u64,
    q: u64,
    total: u64,
    final_keys: Vec<(u64, TaggedKey)>,
    /// Tiny-`n` path: everything gathered locally.
    tiny: bool,
    gathered: Vec<TaggedKey>,
}

impl FullSortMachine {
    /// Total communication rounds of the sort for `n ≥ 4`: Theorem 4.5's
    /// 37 with Step 6's 16-round router replaced by the 12-round one.
    pub const ROUNDS: u32 = 33;

    /// Builds the machine for node `me` holding `keys`.
    ///
    /// # Panics
    ///
    /// Panics if a key equals `u64::MAX` (reserved sentinel) or more than
    /// `n` keys are supplied.
    pub fn new(n: usize, me: NodeId, keys: Vec<u64>) -> Self {
        assert!(keys.len() <= n, "a node may hold at most n keys");
        assert!(
            keys.iter().all(|&k| k < u64::MAX),
            "u64::MAX is a reserved sentinel"
        );
        let mut tagged: Vec<TaggedKey> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| TaggedKey::new(k, me, i as u32))
            .collect();
        crate::sortkey::sort_tagged(&mut tagged);
        let g = isqrt(n).max(1);
        FullSortMachine {
            n,
            g,
            num_groups: n.div_ceil(g),
            me,
            call: 0,
            keys: tagged,
            sort1: None,
            rb: None,
            delimiters: Vec::new(),
            router: None,
            sort2: None,
            holdings: vec![0; n],
            held: Vec::new(),
            held_offset: 0,
            q: 0,
            total: 0,
            final_keys: Vec::new(),
            tiny: n <= 3,
            gathered: Vec::new(),
        }
    }

    fn group_of(&self, v: usize) -> usize {
        v / self.g
    }

    fn group(&self, j: usize) -> NodeGroup {
        let start = j * self.g;
        NodeGroup::contiguous(start, self.g.min(self.n - start))
    }
}

fn demux(inbox: &mut Inbox<FsMsg>) -> Demux {
    let mut d = Demux::default();
    for (src, msg) in inbox.drain() {
        match msg {
            FsMsg::Sample(k) => d.samples.push((src, k)),
            FsMsg::Sort1(m) => d.sort1.push((src, m)),
            FsMsg::Delim(m) => d.delim.push((src, m)),
            FsMsg::Route(m) => d.route.push((src, *m)),
            FsMsg::Sort2(m) => d.sort2.push((src, m)),
            FsMsg::Holding(h) => d.holdings.push((src, h)),
            FsMsg::R8a { rank, key } => d.r8a.push((rank, key)),
            FsMsg::R8b { rank, key } => d.r8b.push((rank, key)),
            FsMsg::Gather(k) => d.gather.push(k),
        }
    }
    d
}

#[derive(Default)]
struct Demux {
    samples: Vec<(NodeId, TaggedKey)>,
    sort1: Vec<(NodeId, A3Msg)>,
    delim: Vec<(NodeId, RbMsg<TaggedKey>)>,
    route: Vec<(NodeId, OGMsg<KeyBatch>)>,
    sort2: Vec<(NodeId, A3Msg)>,
    holdings: Vec<(NodeId, u64)>,
    r8a: Vec<(u64, TaggedKey)>,
    r8b: Vec<(u64, TaggedKey)>,
    gather: Vec<TaggedKey>,
}

impl NodeMachine for FullSortMachine {
    type Msg = FsMsg;
    type Output = NodeBatch;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FsMsg>) {
        if self.tiny {
            // Gather path: broadcast the first key now, the rest in later
            // rounds.
            if let Some(k) = self.keys.first().copied() {
                ctx.broadcast(FsMsg::Gather(k));
            }
            return;
        }
        // Step 1 + Step 2: select every ⌈len/g⌉-th key; the i-th selected
        // key goes to node i.
        ctx.charge_work(sort_cost(self.keys.len()));
        ctx.note_mem(4 * self.keys.len() as u64);
        let stride = self.keys.len().div_ceil(self.g).max(1);
        let mut i = 0usize;
        for (idx, k) in self.keys.iter().enumerate() {
            if (idx + 1) % stride == 0 && i < self.g {
                ctx.send(NodeId::new(i), FsMsg::Sample(*k));
                i += 1;
            }
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, FsMsg>, inbox: &mut Inbox<FsMsg>) -> Step<NodeBatch> {
        self.call += 1;
        let d = demux(inbox);
        if self.tiny {
            return self.tiny_round(ctx, d);
        }
        let call = self.call;
        match call {
            1 => {
                // Sorters (group 0) collect the sample and start Step 3.
                let sorters = self.group(0);
                let mut sort1 = if sorters.contains(self.me) {
                    let samples: Vec<TaggedKey> = d.samples.into_iter().map(|(_, k)| k).collect();
                    SubsetSort::member(
                        sorters.clone(),
                        self.me.index(),
                        samples,
                        self.n,
                        true,
                        CommonScope::new("sort.sample", 0),
                    )
                } else {
                    SubsetSort::relay_only(true)
                };
                let (base, outbox) = ctx.split();
                for (dst, m) in sort1.activate(base) {
                    outbox.push((dst, FsMsg::Sort1(m)));
                }
                self.sort1 = Some(sort1);
                Step::Continue
            }
            2..=9 => {
                let sort1 = self.sort1.as_mut().expect("sort1 active");
                let (base, outbox) = ctx.split();
                let step = sort1.on_round(base, d.sort1);
                for (dst, m) in step.sends {
                    outbox.push((dst, FsMsg::Sort1(m)));
                }
                if call < 9 {
                    debug_assert!(step.output.is_none());
                    return Step::Continue;
                }
                // Step 4: sorters locate the global delimiters (every
                // ⌈total/G⌉-th sample) in their held ranges and broadcast.
                let out = step.output.expect("sample sort completes at call 9");
                let mut items: Vec<(u32, TaggedKey)> = Vec::new();
                if out.total > 0 {
                    let stride = out.total.div_ceil(self.num_groups as u64).max(1);
                    let lo = out.offset;
                    let hi = out.offset + out.held.len() as u64;
                    let mut t = 1u64;
                    while t * stride - 1 < out.total && (t as usize) < self.num_groups {
                        let idx = t * stride - 1;
                        if idx >= lo && idx < hi {
                            items.push((t as u32 - 1, out.held[(idx - lo) as usize]));
                        }
                        t += 1;
                    }
                }
                let mut rb = RelayBroadcast::new(items);
                let (base, outbox) = ctx.split();
                for (dst, m) in rb.activate(base) {
                    outbox.push((dst, FsMsg::Delim(m)));
                }
                self.rb = Some(rb);
                Step::Continue
            }
            10 | 11 => {
                let rb = self.rb.as_mut().expect("delimiter broadcast active");
                let (base, outbox) = ctx.split();
                let step = rb.on_round(base, d.delim);
                for (dst, m) in step.sends {
                    outbox.push((dst, FsMsg::Delim(m)));
                }
                if call < 11 {
                    debug_assert!(step.output.is_none());
                    return Step::Continue;
                }
                let delims = step.output.expect("broadcast completes at call 11");
                self.delimiters = delims.into_iter().map(|(_, k)| k).collect();
                debug_assert!(self.delimiters.windows(2).all(|w| w[0] < w[1]));
                // Step 5 (local): split my keys by the delimiters; Step 6:
                // stripe each bucket across its destination group, bundle
                // into batches, and hand everything to an embedded router.
                let mut buckets: Vec<Vec<TaggedKey>> = vec![Vec::new(); self.num_groups];
                let mut b = 0usize;
                for k in std::mem::take(&mut self.keys) {
                    while b < self.delimiters.len() && k > self.delimiters[b] {
                        b += 1;
                    }
                    buckets[b].push(k);
                }
                ctx.charge_work(buckets.iter().map(|x| x.len() as u64).sum());
                let mut msgs: Vec<RoutedMessage<KeyBatch>> = Vec::new();
                let mut seq = vec![0u32; self.n];
                for (j, bucket) in buckets.into_iter().enumerate() {
                    let group = self.group(j);
                    let w = group.len();
                    let mut per_member: Vec<Vec<TaggedKey>> = vec![Vec::new(); w];
                    for (p, k) in bucket.into_iter().enumerate() {
                        per_member[(p + self.me.index()) % w].push(k);
                    }
                    for (u, keys) in per_member.into_iter().enumerate() {
                        let dst = group.member(u);
                        for batch in KeyBatch::split(&keys) {
                            msgs.push(RoutedMessage::new(self.me, dst, seq[dst.index()], batch));
                            seq[dst.index()] += 1;
                        }
                    }
                }
                let mut router = OptRouterMachine::from_messages(self.n, self.me, msgs, 0x60);
                let (base, outbox) = ctx.split();
                let mut sub_out: Vec<(NodeId, OGMsg<KeyBatch>)> = Vec::new();
                let mut sub_ctx = Ctx::from_parts(base.reborrow(), &mut sub_out);
                router.on_start(&mut sub_ctx);
                for (dst, m) in sub_out {
                    outbox.push((dst, FsMsg::Route(Box::new(m))));
                }
                self.router = Some(router);
                Step::Continue
            }
            12..=23 => {
                let router = self.router.as_mut().expect("router active");
                let (base, outbox) = ctx.split();
                let mut sub_out: Vec<(NodeId, OGMsg<KeyBatch>)> = Vec::new();
                let mut sub_inbox = Inbox::from_messages(d.route);
                let mut sub_ctx = Ctx::from_parts(base.reborrow(), &mut sub_out);
                let step = router.on_round(&mut sub_ctx, &mut sub_inbox);
                for (dst, m) in sub_out {
                    outbox.push((dst, FsMsg::Route(Box::new(m))));
                }
                match step {
                    Step::Continue => {
                        debug_assert!(call < 23, "router must finish by call 23");
                        Step::Continue
                    }
                    Step::Done(batches) => {
                        debug_assert_eq!(call, 23, "router finishes exactly at call 23");
                        // Step 7: sort within my group, skipping the final
                        // redistribution.
                        let received: Vec<TaggedKey> =
                            batches.into_iter().flat_map(|m| m.payload.keys).collect();
                        let my_group = self.group(self.group_of(self.me.index()));
                        let local = my_group
                            .local_index(self.me)
                            .expect("every node is in its group");
                        let mut sort2 = SubsetSort::member(
                            my_group,
                            local,
                            received,
                            4 * self.n,
                            true,
                            CommonScope::new("sort.groups", self.group_of(self.me.index()) as u64),
                        );
                        let (base, outbox) = ctx.split();
                        for (dst, m) in sort2.activate(base) {
                            outbox.push((dst, FsMsg::Sort2(m)));
                        }
                        self.sort2 = Some(sort2);
                        Step::Continue
                    }
                }
            }
            24..=31 => {
                for (src, h) in d.holdings {
                    self.holdings[src.index()] = h;
                }
                let sort2 = self.sort2.as_mut().expect("sort2 active");
                let (base, outbox) = ctx.split();
                let step = sort2.on_round(base, d.sort2);
                for (dst, m) in step.sends {
                    outbox.push((dst, FsMsg::Sort2(m)));
                }
                if call == 27 {
                    // Overlay: my post-sort holding is known as soon as the
                    // in-group counts are announced; broadcast it so Step 8
                    // demands become global common knowledge.
                    let h = sort2
                        .my_pending_holding()
                        .expect("counts are announced by sort2's fourth round");
                    ctx.broadcast(FsMsg::Holding(h));
                }
                if call < 31 {
                    debug_assert!(step.output.is_none());
                    return Step::Continue;
                }
                // Step 8, first leg: rank r travels via relay r mod n.
                let out = step.output.expect("group sort completes at call 31");
                self.total = self.holdings.iter().sum();
                self.q = self.total.div_ceil(self.n as u64).max(1);
                let my_offset: u64 = self.holdings[..self.me.index()].iter().sum();
                debug_assert_eq!(out.held.len() as u64, self.holdings[self.me.index()]);
                self.held = out.held;
                self.held_offset = my_offset;
                ctx.charge_work(self.held.len() as u64);
                for (i, k) in self.held.drain(..).enumerate() {
                    let rank = my_offset + i as u64;
                    ctx.send(
                        NodeId::new((rank % self.n as u64) as usize),
                        FsMsg::R8a { rank, key: k },
                    );
                }
                Step::Continue
            }
            32 => {
                // Step 8, second leg: forward to the rank's owner.
                ctx.charge_work(d.r8a.len() as u64);
                for (rank, key) in d.r8a {
                    let owner = (rank / self.q) as usize;
                    ctx.send(NodeId::new(owner), FsMsg::R8b { rank, key });
                }
                Step::Continue
            }
            33 => {
                self.final_keys = d.r8b;
                crate::sortkey::sort_by_u64_key(&mut self.final_keys, |&(rank, _)| rank);
                let offset = self.q * self.me.index() as u64;
                for (i, &(rank, _)) in self.final_keys.iter().enumerate() {
                    debug_assert_eq!(rank, offset + i as u64, "rank gap in final batch");
                }
                ctx.charge_work(sort_cost(self.final_keys.len()));
                Step::Done(NodeBatch {
                    keys: self.final_keys.drain(..).map(|(_, k)| k).collect(),
                    offset,
                })
            }
            _ => panic!("FullSortMachine stepped past completion"),
        }
    }
}

impl FullSortMachine {
    fn tiny_round(&mut self, ctx: &mut Ctx<'_, FsMsg>, d: Demux) -> Step<NodeBatch> {
        self.gathered.extend(d.gather);
        let call = self.call as usize;
        if let Some(k) = self.keys.get(call).copied() {
            ctx.broadcast(FsMsg::Gather(k));
        }
        if call <= self.n {
            return Step::Continue;
        }
        // Everyone holds everything: sort locally, keep my slice.
        crate::sortkey::sort_tagged(&mut self.gathered);
        let total = self.gathered.len() as u64;
        let q = total.div_ceil(self.n as u64).max(1);
        let lo = (q * self.me.index() as u64).min(total);
        let hi = (q * (self.me.index() as u64 + 1)).min(total);
        ctx.charge_work(sort_cost(self.gathered.len()));
        Step::Done(NodeBatch {
            keys: self.gathered[lo as usize..hi as usize].to_vec(),
            offset: lo,
        })
    }
}

/// Outcome of a full sort run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortOutcome {
    /// Per-node sorted batches (node `i` holds ranks
    /// `[offsets[i], offsets[i] + batches[i].len())`).
    pub batches: Vec<Vec<TaggedKey>>,
    /// Global rank of each node's first key.
    pub offsets: Vec<u64>,
    /// Total number of keys.
    pub total: u64,
    /// Rounds, messages, bits, work.
    pub metrics: Metrics,
}

/// The simulator spec for sorting: the embedded router carries bundled
/// keys, so the constant-factor budget is wider than plain routing.
pub fn spec_for_sorting(n: usize) -> CliqueSpec {
    CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(512)
        .with_max_rounds(96)
}

/// Sorts per-node key batches with Algorithm 4 (Theorem 4.5) in 33
/// rounds — Theorem 5.4's router in Step 6; the paper states 37 with
/// Theorem 3.7's — verifying the result against a local reference sort.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInstance`] for oversized inputs or keys
/// equal to `u64::MAX`, plus any simulation or verification failure.
pub fn sort_keys(keys: &[Vec<u64>]) -> Result<SortOutcome, CoreError> {
    sort_with_spec(keys, spec_for_sorting(keys.len()))
}

/// As [`sort_keys`] with a caller-provided spec.
///
/// # Errors
///
/// See [`sort_keys`].
pub fn sort_with_spec(keys: &[Vec<u64>], spec: CliqueSpec) -> Result<SortOutcome, CoreError> {
    sort_on(keys, spec, &mut CliqueSession::new())
}

/// The shared driver: the stateless entry point runs it on a fresh
/// session, [`CliqueService`](crate::CliqueService) on its own.
///
/// # Errors
///
/// See [`sort_keys`].
pub(crate) fn sort_on(
    keys: &[Vec<u64>],
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<SortOutcome, CoreError> {
    let n = keys.len();
    if n == 0 {
        return Err(CoreError::invalid("at least one node required"));
    }
    for (i, list) in keys.iter().enumerate() {
        if list.len() > n {
            return Err(CoreError::invalid(format!(
                "node {i} holds {} keys, more than n = {n}",
                list.len()
            )));
        }
        if list.contains(&u64::MAX) {
            return Err(CoreError::invalid("u64::MAX is a reserved sentinel"));
        }
    }
    let machines = (0..n)
        .map(|v| FullSortMachine::new(n, NodeId::new(v), keys[v].clone()))
        .collect();
    let report = session.run(spec, machines)?;
    let batches: Vec<Vec<TaggedKey>> = report.outputs.iter().map(|b| b.keys.clone()).collect();
    let offsets: Vec<u64> = report.outputs.iter().map(|b| b.offset).collect();

    // Verify against a reference sort.
    let mut reference: Vec<TaggedKey> = keys
        .iter()
        .enumerate()
        .flat_map(|(i, list)| {
            list.iter()
                .enumerate()
                .map(move |(j, &k)| TaggedKey::new(k, NodeId::new(i), j as u32))
        })
        .collect();
    reference.sort_unstable();
    let got: Vec<TaggedKey> = batches.iter().flatten().copied().collect();
    if got != reference {
        return Err(CoreError::VerificationFailed {
            reason: format!(
                "sorted output mismatch: {} keys out, {} expected",
                got.len(),
                reference.len()
            ),
        });
    }
    for k in 0..n {
        let expected_offset: u64 = batches[..k].iter().map(|b| b.len() as u64).sum();
        if offsets[k] != expected_offset && !batches[k].is_empty() {
            return Err(CoreError::VerificationFailed {
                reason: format!(
                    "node {k} reports offset {}, expected {expected_offset}",
                    offsets[k]
                ),
            });
        }
    }
    Ok(SortOutcome {
        batches,
        offsets,
        total: reference.len() as u64,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUNDS: u64 = FullSortMachine::ROUNDS as u64;

    fn keys_for(n: usize, f: impl Fn(usize, usize) -> u64) -> Vec<Vec<u64>> {
        (0..n).map(|i| (0..n).map(|j| f(i, j)).collect()).collect()
    }

    #[test]
    fn full_load_takes_exactly_33_rounds() {
        assert_eq!(ROUNDS, 33);
        // Square (16, 25) and non-square (17) full loads.
        for n in [16, 17, 25] {
            let keys = keys_for(n, |i, j| ((i * 131 + j * 17) % 4096) as u64);
            let out = sort_keys(&keys).unwrap();
            assert_eq!(out.metrics.comm_rounds(), ROUNDS, "n={n}");
            assert_eq!(out.total, (n * n) as u64);
        }
    }

    #[test]
    fn already_sorted_input() {
        let n = 16;
        let keys = keys_for(n, |i, j| (i * n + j) as u64);
        let out = sort_keys(&keys).unwrap();
        assert_eq!(out.metrics.comm_rounds(), ROUNDS);
    }

    #[test]
    fn reverse_sorted_input() {
        let n = 16;
        let keys = keys_for(n, |i, j| (n * n - i * n - j) as u64);
        let out = sort_keys(&keys).unwrap();
        assert_eq!(out.metrics.comm_rounds(), ROUNDS);
    }

    #[test]
    fn duplicate_heavy_input() {
        let n = 16;
        let keys = keys_for(n, |_, j| (j % 3) as u64);
        let out = sort_keys(&keys).unwrap();
        assert_eq!(out.metrics.comm_rounds(), ROUNDS);
    }

    #[test]
    fn non_square_sizes() {
        for n in [5, 8, 12, 20] {
            let keys = keys_for(n, |i, j| ((i * 7 + j * 13) % 100) as u64);
            let out = sort_keys(&keys).unwrap();
            assert_eq!(out.metrics.comm_rounds(), ROUNDS, "n={n}");
        }
    }

    #[test]
    fn uneven_inputs() {
        let n = 9;
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                (0..(i * 2) % (n + 1))
                    .map(|j| ((i + j * 31) % 64) as u64)
                    .collect()
            })
            .collect();
        let out = sort_keys(&keys).unwrap();
        assert_eq!(out.metrics.comm_rounds(), ROUNDS);
    }

    #[test]
    fn tiny_cliques() {
        for n in [1, 2, 3] {
            let keys = keys_for(n, |i, j| ((i * 3 + j) % 5) as u64);
            let out = sort_keys(&keys).unwrap();
            assert!(out.metrics.comm_rounds() <= ROUNDS, "n={n}");
        }
    }

    #[test]
    fn rejects_sentinel_keys() {
        let keys = vec![vec![u64::MAX], vec![]];
        assert!(sort_keys(&keys).is_err());
    }

    #[test]
    fn rejects_oversized_input() {
        let keys = vec![vec![1, 2, 3], vec![]];
        assert!(sort_keys(&keys).is_err());
    }
}

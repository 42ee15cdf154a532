//! Randomized sample sort, after Patt-Shamir–Teplitsky \[12\]: random
//! splitters, randomized routing of keys into `√n`-sized groups, a second
//! random splitter level within groups, and an interval redistribution.
//! Constant rounds with high probability — empirically about half the
//! paper's deterministic 37 (33 here, with Theorem 5.4's router inside).

use crate::rand_exchange::{RandExchange, RxMsg};
use cc_core::sorting::{KeyBatch, TaggedKey};
use cc_core::CoreError;
use cc_primitives::NodeGroup;
use cc_rand::DetRng;
use cc_sim::util::{isqrt, sort_cost, word_bits};
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, Metrics, NodeId, NodeMachine, Payload, Step};

/// Messages of the randomized sort.
#[derive(Clone, Debug)]
pub enum RsMsg {
    /// Level-1 random splitter sample.
    Sample(TaggedKey),
    /// Key routing into groups.
    Rx1(RxMsg<KeyBatch>),
    /// Level-2 (within-group) splitter sample.
    Sub(TaggedKey),
    /// Key routing to final members.
    Rx2(RxMsg<KeyBatch>),
    /// Holding-size broadcast.
    Holding(u64),
    /// Interval exchange, relay leg.
    R8a {
        /// Global rank.
        rank: u64,
        /// The key.
        key: TaggedKey,
    },
    /// Interval exchange, delivery leg.
    R8b {
        /// Global rank.
        rank: u64,
        /// The key.
        key: TaggedKey,
    },
}

impl Payload for RsMsg {
    fn size_bits(&self, n: usize) -> u64 {
        let w = word_bits(n);
        3 + match self {
            RsMsg::Sample(k) | RsMsg::Sub(k) => k.size_bits(n),
            RsMsg::Rx1(m) | RsMsg::Rx2(m) => m.size_bits(n),
            RsMsg::Holding(_) => 2 * w,
            RsMsg::R8a { key, .. } | RsMsg::R8b { key, .. } => 2 * w + key.size_bits(n),
        }
    }
}

enum Phase {
    AwaitSamples,
    Rx1(RandExchange<KeyBatch>),
    AwaitSub,
    Rx2(RandExchange<KeyBatch>),
    AwaitHoldings,
    R8Relay,
    Collect,
}

struct RandomSortMachine {
    n: usize,
    g: usize,
    num_groups: usize,
    me: NodeId,
    seed: u64,
    keys: Vec<TaggedKey>,
    phase: Phase,
    received: Vec<TaggedKey>,
    holdings: Vec<u64>,
    q: u64,
}

impl RandomSortMachine {
    fn group(&self, j: usize) -> NodeGroup {
        let start = j * self.g;
        NodeGroup::contiguous(start, self.g.min(self.n - start))
    }

    fn my_group_index(&self) -> usize {
        self.me.index() / self.g
    }

    /// Strided batch assignment of `bucketed[j]` keys across group `j`.
    fn batch_to_groups(&self, buckets: Vec<Vec<TaggedKey>>) -> Vec<(NodeId, KeyBatch)> {
        let mut out = Vec::new();
        for (j, bucket) in buckets.into_iter().enumerate() {
            let group = self.group(j);
            let w = group.len();
            let mut per_member: Vec<Vec<TaggedKey>> = vec![Vec::new(); w];
            for (p, k) in bucket.into_iter().enumerate() {
                per_member[(p + self.me.index()) % w].push(k);
            }
            for (u, keys) in per_member.into_iter().enumerate() {
                for batch in KeyBatch::split(&keys) {
                    out.push((group.member(u), batch));
                }
            }
        }
        out
    }
}

fn split_by(keys: Vec<TaggedKey>, splitters: &[TaggedKey], buckets: usize) -> Vec<Vec<TaggedKey>> {
    let mut out: Vec<Vec<TaggedKey>> = vec![Vec::new(); buckets];
    for k in keys {
        let b = splitters.partition_point(|s| *s < k).min(buckets - 1);
        out[b].push(k);
    }
    out
}

fn pick_splitters(mut samples: Vec<TaggedKey>, parts: usize) -> Vec<TaggedKey> {
    samples.sort_unstable();
    if samples.is_empty() || parts <= 1 {
        return Vec::new();
    }
    let stride = samples.len().div_ceil(parts).max(1);
    samples
        .iter()
        .enumerate()
        .filter(|(i, _)| (i + 1) % stride == 0)
        .take(parts - 1)
        .map(|(_, k)| *k)
        .collect()
}

impl NodeMachine for RandomSortMachine {
    type Msg = RsMsg;
    type Output = (Vec<TaggedKey>, u64);

    fn on_start(&mut self, ctx: &mut Ctx<'_, RsMsg>) {
        self.keys.sort_unstable();
        ctx.charge_work(sort_cost(self.keys.len()));
        if !self.keys.is_empty() {
            let mut rng = DetRng::seed_from_u64(self.seed ^ self.me.raw() as u64);
            let pick = self.keys[rng.gen_range_usize(0..self.keys.len())];
            ctx.broadcast(RsMsg::Sample(pick));
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, RsMsg>,
        inbox: &mut Inbox<RsMsg>,
    ) -> Step<Self::Output> {
        let mut samples = Vec::new();
        let mut rx1 = Vec::new();
        let mut subs = Vec::new();
        let mut rx2 = Vec::new();
        let mut holdings = Vec::new();
        let mut r8a = Vec::new();
        let mut r8b = Vec::new();
        for (src, msg) in inbox.drain() {
            match msg {
                RsMsg::Sample(k) => samples.push(k),
                RsMsg::Rx1(m) => rx1.push((src, m)),
                RsMsg::Sub(k) => subs.push((src, k)),
                RsMsg::Rx2(m) => rx2.push((src, m)),
                RsMsg::Holding(h) => holdings.push((src, h)),
                RsMsg::R8a { rank, key } => r8a.push((src, rank, key)),
                RsMsg::R8b { rank, key } => r8b.push((rank, key)),
            }
        }
        match &mut self.phase {
            Phase::AwaitSamples => {
                let splitters = pick_splitters(samples, self.num_groups);
                let buckets = split_by(std::mem::take(&mut self.keys), &splitters, self.num_groups);
                let msgs = self.batch_to_groups(buckets);
                let mut rx = RandExchange::new(self.n, self.me, msgs, self.seed ^ 0xA1);
                let (base, outbox) = ctx.split();
                for (dst, m) in rx.activate(base) {
                    outbox.push((dst, RsMsg::Rx1(m)));
                }
                self.phase = Phase::Rx1(rx);
                Step::Continue
            }
            Phase::Rx1(rx) => {
                let (base, outbox) = ctx.split();
                let (sends, out) = rx.on_round(base, rx1);
                for (dst, m) in sends {
                    outbox.push((dst, RsMsg::Rx1(m)));
                }
                if let Some(batches) = out {
                    self.received = batches.into_iter().flat_map(|b| b.keys).collect();
                    if !self.received.is_empty() {
                        let mut rng =
                            DetRng::seed_from_u64(self.seed ^ 0xB2 ^ self.me.raw() as u64);
                        let pick = self.received[rng.gen_range_usize(0..self.received.len())];
                        ctx.broadcast(RsMsg::Sub(pick));
                    }
                    self.phase = Phase::AwaitSub;
                }
                Step::Continue
            }
            Phase::AwaitSub => {
                // Sub-splitters for my group: the samples its members sent.
                let my_group = self.group(self.my_group_index());
                let w = my_group.len();
                let my_subs: Vec<TaggedKey> = subs
                    .into_iter()
                    .filter(|(src, _)| my_group.contains(*src))
                    .map(|(_, k)| k)
                    .collect();
                let splitters = pick_splitters(my_subs, w);
                let buckets = split_by(std::mem::take(&mut self.received), &splitters, w);
                let mut msgs = Vec::new();
                for (u, keys) in buckets.into_iter().enumerate() {
                    for batch in KeyBatch::split(&keys) {
                        msgs.push((my_group.member(u), batch));
                    }
                }
                let mut rx = RandExchange::new(self.n, self.me, msgs, self.seed ^ 0xC3);
                let (base, outbox) = ctx.split();
                for (dst, m) in rx.activate(base) {
                    outbox.push((dst, RsMsg::Rx2(m)));
                }
                self.phase = Phase::Rx2(rx);
                Step::Continue
            }
            Phase::Rx2(rx) => {
                let (base, outbox) = ctx.split();
                let (sends, out) = rx.on_round(base, rx2);
                for (dst, m) in sends {
                    outbox.push((dst, RsMsg::Rx2(m)));
                }
                if let Some(batches) = out {
                    self.received = batches.into_iter().flat_map(|b| b.keys).collect();
                    self.received.sort_unstable();
                    ctx.charge_work(sort_cost(self.received.len()));
                    ctx.broadcast(RsMsg::Holding(self.received.len() as u64));
                    self.phase = Phase::AwaitHoldings;
                }
                Step::Continue
            }
            Phase::AwaitHoldings => {
                for (src, h) in holdings {
                    self.holdings[src.index()] = h;
                }
                let total: u64 = self.holdings.iter().sum();
                self.q = total.div_ceil(self.n as u64).max(1);
                let offset: u64 = self.holdings[..self.me.index()].iter().sum();
                for (i, k) in self.received.drain(..).enumerate() {
                    let rank = offset + i as u64;
                    ctx.send(
                        NodeId::new((rank % self.n as u64) as usize),
                        RsMsg::R8a { rank, key: k },
                    );
                }
                self.phase = Phase::R8Relay;
                Step::Continue
            }
            Phase::R8Relay => {
                for (_, rank, key) in r8a {
                    ctx.send(
                        NodeId::new((rank / self.q) as usize),
                        RsMsg::R8b { rank, key },
                    );
                }
                self.phase = Phase::Collect;
                Step::Continue
            }
            Phase::Collect => {
                r8b.sort_unstable_by_key(|&(rank, _)| rank);
                let offset = self.q * self.me.index() as u64;
                Step::Done((r8b.into_iter().map(|(_, k)| k).collect(), offset))
            }
        }
    }
}

/// Outcome of a randomized sort run.
#[derive(Debug)]
pub struct RandomSortOutcome {
    /// Per-node sorted batches.
    pub batches: Vec<Vec<TaggedKey>>,
    /// Measurements — compare `comm_rounds` against the deterministic 33.
    pub metrics: Metrics,
}

/// Sorts with the randomized sample-sort baseline.
///
/// # Errors
///
/// Propagates simulation failures and verifies the result against a
/// reference sort.
pub fn sort_randomized(keys: &[Vec<u64>], seed: u64) -> Result<RandomSortOutcome, CoreError> {
    let n = keys.len();
    if n == 0 {
        return Err(CoreError::invalid("at least one node required"));
    }
    let g = isqrt(n).max(1);
    let machines = (0..n)
        .map(|v| RandomSortMachine {
            n,
            g,
            num_groups: n.div_ceil(g),
            me: NodeId::new(v),
            seed,
            keys: keys[v]
                .iter()
                .enumerate()
                .map(|(i, &k)| TaggedKey::new(k, NodeId::new(v), i as u32))
                .collect(),
            phase: Phase::AwaitSamples,
            received: Vec::new(),
            holdings: vec![0; n],
            q: 1,
        })
        .collect();
    let spec = CliqueSpec::new(n)
        .expect("n >= 1")
        .with_budget_words(512)
        .with_max_rounds(4096);
    let report = CliqueSession::new().run(spec, machines)?;
    let batches: Vec<Vec<TaggedKey>> = report.outputs.into_iter().map(|(b, _)| b).collect();
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
                "randomized sort mismatch: {} keys out, {} expected",
                got.len(),
                reference.len()
            ),
        });
    }
    Ok(RandomSortOutcome {
        batches,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_beats_half_of_37_roughly() {
        let n = 16;
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 131 + j * 17) % 4096) as u64).collect())
            .collect();
        let out = sort_randomized(&keys, 42).unwrap();
        assert!(
            out.metrics.comm_rounds() < 37,
            "{} rounds",
            out.metrics.comm_rounds()
        );
    }

    #[test]
    fn duplicate_heavy() {
        let n = 9;
        let keys: Vec<Vec<u64>> = (0..n).map(|_| vec![5; n]).collect();
        let out = sort_randomized(&keys, 7).unwrap();
        assert!(out.metrics.comm_rounds() < 37);
    }

    #[test]
    fn deterministic_per_seed() {
        let n = 9;
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i + j * 3) % 11) as u64).collect())
            .collect();
        let a = sort_randomized(&keys, 5).unwrap().metrics.comm_rounds();
        let b = sort_randomized(&keys, 5).unwrap().metrics.comm_rounds();
        assert_eq!(a, b);
    }
}

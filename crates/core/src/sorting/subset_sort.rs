//! Algorithm 3: sorting up to `≈ 2n·|W|` keys within a node group `W` in
//! 10 rounds (Lemma 4.4), or 8 when the final order-preserving
//! redistribution is skipped (as both invocations inside Algorithm 4 do).
//!
//! Round schedule (after activation):
//!
//! | rounds | step                                            |
//! |--------|-------------------------------------------------|
//! | 1–2    | announce every `t`-th local key (Step 2)        |
//! | 3–4    | announce per-bucket counts (Step 5)             |
//! | 5–8    | Corollary 3.4 delivery of the buckets (Step 6)  |
//! | 9–10   | order-preserving redistribution (Step 8)        |
//!
//! Steps 1, 3, 4 and 7 are local. The paper spends Corollary 3.4's full
//! four rounds on Step 6, and we reproduce that accounting (10 rounds).
//! Step 5 already makes Step 6's demands common knowledge, so two of
//! these rounds are saveable (ROADMAP item 4).

use crate::sorting::keys::{IndexedBatch, KeyBatch, TaggedKey, KEYS_PER_BATCH};
use cc_primitives::{
    AnnounceMsg, DemandMatrix, Driver, DriverStep, GroupAnnounce, KnownExchange, KxMsg, NodeGroup,
    SubsetExchange, SxMsg,
};
use cc_sim::hash::combine;
use cc_sim::util::sort_cost;
use cc_sim::{BaseCtx, CommonScope, NodeId, Payload};

/// Messages of a [`SubsetSort`].
#[derive(Clone, Debug)]
pub enum A3Msg {
    /// Step 2: sampled-key announcements.
    Sel(KxMsg<AnnounceMsg>),
    /// Step 5: bucket-count announcements.
    Cnt(KxMsg<AnnounceMsg>),
    /// Step 6: bucket delivery.
    Data(SxMsg<KeyBatch>),
    /// Step 8: order-preserving redistribution.
    Redist(KxMsg<IndexedBatch>),
}

impl Payload for A3Msg {
    fn size_bits(&self, n: usize) -> u64 {
        2 + match self {
            A3Msg::Sel(m) | A3Msg::Cnt(m) => m.size_bits(n),
            A3Msg::Data(m) => m.size_bits(n),
            A3Msg::Redist(m) => m.size_bits(n),
        }
    }
}

/// What a member learns when the sort completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetSortOutput {
    /// The keys this member holds, sorted. With `skip_final`, this is the
    /// member's *bucket* (rank-th delimiter range); otherwise it is the
    /// member's slice of the global order, sized like its input.
    pub held: Vec<TaggedKey>,
    /// Global rank (within `W`'s key multiset) of `held[0]`.
    pub offset: u64,
    /// Every member's holding size — common knowledge across `W`.
    pub member_counts: Vec<u64>,
    /// Total number of keys in the group.
    pub total: u64,
}

enum Role {
    Member {
        group: NodeGroup,
        my_local: usize,
        keys: Vec<TaggedKey>,
        cap: usize,
        skip_final: bool,
        scope: CommonScope,
    },
    Relay {
        skip_final: bool,
    },
}

/// Algorithm 3 as a [`Driver`]: 10 rounds (8 with `skip_final`), output
/// [`SubsetSortOutput`] on members and an empty output on relays.
pub struct SubsetSort {
    role: Role,
    call: u8,
    sel_len: usize,
    ann_sel: Option<GroupAnnounce>,
    ann_cnt: Option<GroupAnnounce>,
    sx: Option<SubsetExchange<KeyBatch>>,
    redist: Option<KnownExchange<IndexedBatch>>,
    /// Delimiters derived from the sample (member-side).
    delimiters: Vec<TaggedKey>,
    /// Count matrix `C[i][j]` = member i's keys in bucket j.
    counts: Option<Vec<Vec<u64>>>,
    /// Original per-member input sizes (from the count announce).
    orig_counts: Vec<u64>,
    bucket: Vec<TaggedKey>,
    out: Option<SubsetSortOutput>,
}

impl std::fmt::Debug for SubsetSort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubsetSort(call {})", self.call)
    }
}

impl SubsetSort {
    /// Rounds of the full sort (Lemma 4.4).
    pub const ROUNDS: u64 = 10;
    /// Rounds when the final redistribution is skipped.
    pub const ROUNDS_SKIP_FINAL: u64 = 8;

    /// Member-side driver. `cap` is the common bound on per-member input
    /// size (the `2n` of the paper's statement); `keys` must respect it.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() > cap`.
    pub fn member(
        group: NodeGroup,
        my_local: usize,
        mut keys: Vec<TaggedKey>,
        cap: usize,
        skip_final: bool,
        scope: CommonScope,
    ) -> Self {
        assert!(keys.len() <= cap, "member holds more keys than the cap");
        keys.sort_unstable();
        SubsetSort {
            role: Role::Member {
                group,
                my_local,
                keys,
                cap,
                skip_final,
                scope,
            },
            call: 0,
            sel_len: 0,
            ann_sel: None,
            ann_cnt: None,
            sx: None,
            redist: None,
            delimiters: Vec::new(),
            counts: None,
            orig_counts: Vec::new(),
            bucket: Vec::new(),
            out: None,
        }
    }

    /// Relay-side driver for nodes outside the group; `skip_final` must
    /// match the members' setting so every node finishes in the same
    /// round.
    pub fn relay_only(skip_final: bool) -> Self {
        SubsetSort {
            role: Role::Relay { skip_final },
            call: 0,
            sel_len: 0,
            ann_sel: None,
            ann_cnt: None,
            sx: None,
            redist: None,
            delimiters: Vec::new(),
            counts: None,
            orig_counts: Vec::new(),
            bucket: Vec::new(),
            out: None,
        }
    }

    /// The announced per-member bucket counts, available after round 4 —
    /// Algorithm 4 peeks at this to piggyback its global holding
    /// broadcast (see `full_sort`).
    pub fn counts(&self) -> Option<&Vec<Vec<u64>>> {
        self.counts.as_ref()
    }

    /// My post-Step-7 holding size, available after round 4.
    pub fn my_pending_holding(&self) -> Option<u64> {
        let Role::Member { my_local, .. } = &self.role else {
            return Some(0);
        };
        self.counts
            .as_ref()
            .map(|c| c.iter().map(|row| row[*my_local]).sum())
    }

    fn sel_scope(scope: CommonScope) -> CommonScope {
        CommonScope::new(scope.label, combine(scope.tag, 0x531))
    }

    fn cnt_scope(scope: CommonScope) -> CommonScope {
        CommonScope::new(scope.label, combine(scope.tag, 0xC47))
    }

    fn sx_scope(scope: CommonScope) -> CommonScope {
        CommonScope::new(scope.label, combine(scope.tag, 0xDA7A))
    }

    fn redist_scope(scope: CommonScope) -> CommonScope {
        CommonScope::new(scope.label, combine(scope.tag, 0x8ED))
    }
}

/// Packs a tagged key into the two announce words.
fn pack_key(k: &TaggedKey) -> (u64, u64) {
    (
        k.key,
        (u64::from(k.origin.raw()) << 32) | u64::from(k.index_at_origin),
    )
}

fn unpack_key(key: u64, id: u64) -> TaggedKey {
    TaggedKey::new(key, NodeId::new((id >> 32) as usize), id as u32)
}

const NONE: u64 = u64::MAX;

impl Driver for SubsetSort {
    type Msg = A3Msg;
    type Output = SubsetSortOutput;

    fn activate(&mut self, ctx: &mut BaseCtx<'_>) -> Vec<(NodeId, Self::Msg)> {
        let Role::Member {
            group,
            my_local,
            keys,
            cap,
            scope,
            ..
        } = &self.role
        else {
            self.ann_sel = Some(GroupAnnounce::relay_only());
            return Vec::new();
        };
        let w = group.len();
        // Step 1: select every t-th key, t = ⌈cap/w⌉ (the paper's 2√n for
        // cap = 2n, w = √n).
        let t = cap.div_ceil(w).max(1);
        let l = cap / t; // max selected per member
        self.sel_len = l;
        ctx.charge_work(sort_cost(keys.len()));
        ctx.note_mem(4 * keys.len() as u64);
        let mut values = vec![NONE; 2 * l];
        let mut count = 0usize;
        for (idx, k) in keys.iter().enumerate() {
            if (idx + 1) % t == 0 && count < l {
                let (a, b) = pack_key(k);
                values[count] = a;
                values[l + count] = b;
                count += 1;
            }
        }
        let mut ann =
            GroupAnnounce::member(group.clone(), *my_local, values, Self::sel_scope(*scope));
        let sends = ann.activate(ctx);
        self.ann_sel = Some(ann);
        wrap(sends, A3Msg::Sel)
    }

    fn on_round(
        &mut self,
        ctx: &mut BaseCtx<'_>,
        inbox: Vec<(NodeId, Self::Msg)>,
    ) -> DriverStep<Self::Msg, Self::Output> {
        self.call += 1;
        match self.call {
            1 => {
                let step = self
                    .ann_sel
                    .as_mut()
                    .expect("sel announce active")
                    .on_round(
                        ctx,
                        unwrap(inbox, |m| match m {
                            A3Msg::Sel(x) => x,
                            other => panic!("unexpected message in Step 2: {other:?}"),
                        }),
                    );
                DriverStep::sends(wrap(step.sends, A3Msg::Sel))
            }
            2 => {
                let step = self
                    .ann_sel
                    .as_mut()
                    .expect("sel announce active")
                    .on_round(
                        ctx,
                        unwrap(inbox, |m| match m {
                            A3Msg::Sel(x) => x,
                            other => panic!("unexpected message in Step 2: {other:?}"),
                        }),
                    );
                let matrix = step.output.expect("announce completes on round 2");
                let Role::Member {
                    group,
                    my_local,
                    keys,
                    scope,
                    ..
                } = &self.role
                else {
                    self.ann_cnt = Some(GroupAnnounce::relay_only());
                    return DriverStep::sends(Vec::new());
                };
                let w = group.len();
                let l = self.sel_len;
                // Step 3: pool the samples, pick every ⌈pool/w⌉-th as a
                // delimiter (at most w − 1 of them).
                let mut pool: Vec<TaggedKey> = Vec::new();
                for row in &matrix {
                    for c in 0..l {
                        if row[c] != NONE || row[l + c] != NONE {
                            pool.push(unpack_key(row[c], row[l + c]));
                        }
                    }
                }
                pool.sort_unstable();
                ctx.charge_work(sort_cost(pool.len()));
                let stride = pool.len().div_ceil(w).max(1);
                self.delimiters = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i + 1) % stride == 0)
                    .take(w - 1)
                    .map(|(_, k)| *k)
                    .collect();
                // Step 4: split my keys by the delimiters (keys sorted at
                // construction, delimiters sorted — one merge pass).
                let mut bucket_counts = vec![0u64; w];
                let mut b = 0usize;
                for k in keys {
                    while b < self.delimiters.len() && *k > self.delimiters[b] {
                        b += 1;
                    }
                    bucket_counts[b] += 1;
                }
                ctx.charge_work(keys.len() as u64 + w as u64);
                // Step 5: announce per-bucket counts (plus my input size
                // in the last slot so orig sizes become common knowledge).
                let mut values: Vec<u64> = bucket_counts.clone();
                values.push(keys.len() as u64);
                let mut ann = GroupAnnounce::member(
                    group.clone(),
                    *my_local,
                    values,
                    Self::cnt_scope(*scope),
                );
                let sends = ann.activate(ctx);
                self.ann_cnt = Some(ann);
                DriverStep::sends(wrap(sends, A3Msg::Cnt))
            }
            3 => {
                let step = self
                    .ann_cnt
                    .as_mut()
                    .expect("cnt announce active")
                    .on_round(
                        ctx,
                        unwrap(inbox, |m| match m {
                            A3Msg::Cnt(x) => x,
                            other => panic!("unexpected message in Step 5: {other:?}"),
                        }),
                    );
                DriverStep::sends(wrap(step.sends, A3Msg::Cnt))
            }
            4 => {
                let step = self
                    .ann_cnt
                    .as_mut()
                    .expect("cnt announce active")
                    .on_round(
                        ctx,
                        unwrap(inbox, |m| match m {
                            A3Msg::Cnt(x) => x,
                            other => panic!("unexpected message in Step 5: {other:?}"),
                        }),
                    );
                let matrix = step.output.expect("announce completes on round 4");
                let Role::Member {
                    group,
                    my_local,
                    keys,
                    scope,
                    ..
                } = &mut self.role
                else {
                    self.sx = Some(SubsetExchange::relay_only());
                    return DriverStep::sends(Vec::new());
                };
                let w = group.len();
                let counts: Vec<Vec<u64>> = matrix.iter().map(|row| row[..w].to_vec()).collect();
                self.orig_counts = matrix.iter().map(|row| row[w]).collect();
                // Step 6: ship bucket j to member j, keys bundled.
                let mut outgoing: Vec<Vec<KeyBatch>> = vec![Vec::new(); w];
                let mut b = 0usize;
                let mut run: Vec<TaggedKey> = Vec::new();
                let keys_taken = std::mem::take(keys);
                for k in keys_taken {
                    while b < self.delimiters.len() && k > self.delimiters[b] {
                        outgoing[b].extend(KeyBatch::split(&run));
                        run.clear();
                        b += 1;
                    }
                    run.push(k);
                }
                outgoing[b].extend(KeyBatch::split(&run));
                ctx.charge_work(outgoing.iter().map(|o| o.len() as u64).sum());
                self.counts = Some(counts);
                let mut sx = SubsetExchange::member(
                    group.clone(),
                    *my_local,
                    outgoing,
                    Self::sx_scope(*scope),
                );
                let sends = sx.activate(ctx);
                self.sx = Some(sx);
                DriverStep::sends(wrap(sends, A3Msg::Data))
            }
            5..=7 => {
                let step = self.sx.as_mut().expect("sx active").on_round(
                    ctx,
                    unwrap(inbox, |m| match m {
                        A3Msg::Data(x) => x,
                        other => panic!("unexpected message in Step 6: {other:?}"),
                    }),
                );
                debug_assert!(step.output.is_none());
                DriverStep::sends(wrap(step.sends, A3Msg::Data))
            }
            8 => {
                let step = self.sx.as_mut().expect("sx active").on_round(
                    ctx,
                    unwrap(inbox, |m| match m {
                        A3Msg::Data(x) => x,
                        other => panic!("unexpected message in Step 6: {other:?}"),
                    }),
                );
                let batches = step.output.expect("delivery completes on round 8");
                let Role::Member {
                    group,
                    my_local,
                    skip_final,
                    scope,
                    ..
                } = &self.role
                else {
                    debug_assert!(batches.is_empty());
                    let Role::Relay { skip_final } = &self.role else {
                        unreachable!("non-member role is Relay");
                    };
                    if *skip_final {
                        return DriverStep::done(SubsetSortOutput {
                            held: Vec::new(),
                            offset: 0,
                            member_counts: Vec::new(),
                            total: 0,
                        });
                    }
                    self.redist = Some(KnownExchange::relay_only());
                    return DriverStep::sends(Vec::new());
                };
                let w = group.len();
                let counts = self.counts.as_ref().expect("counts from round 4");
                // Step 7: sort the received bucket.
                let mut bucket: Vec<TaggedKey> = batches.into_iter().flat_map(|b| b.keys).collect();
                bucket.sort_unstable();
                ctx.charge_work(sort_cost(bucket.len()));
                ctx.note_mem(4 * bucket.len() as u64);
                let member_counts: Vec<u64> = (0..w)
                    .map(|j| counts.iter().map(|row| row[j]).sum())
                    .collect();
                let total: u64 = member_counts.iter().sum();
                assert_eq!(
                    bucket.len() as u64,
                    member_counts[*my_local],
                    "received bucket disagrees with the announced counts"
                );
                let offset: u64 = member_counts[..*my_local].iter().sum();
                if *skip_final {
                    return DriverStep::done(SubsetSortOutput {
                        held: bucket,
                        offset,
                        member_counts,
                        total,
                    });
                }
                // Step 8: redistribute so member i holds its input-sized
                // slice of the global order.
                let orig = &self.orig_counts;
                let mut orig_prefix = vec![0u64; w + 1];
                for i in 0..w {
                    orig_prefix[i + 1] = orig_prefix[i] + orig[i];
                }
                debug_assert_eq!(orig_prefix[w], total);
                let mut demands = DemandMatrix::new(w);
                let mut bucket_prefix = vec![0u64; w + 1];
                for j in 0..w {
                    bucket_prefix[j + 1] = bucket_prefix[j] + member_counts[j];
                }
                for holder in 0..w {
                    let (lo, hi) = (bucket_prefix[holder], bucket_prefix[holder + 1]);
                    for target in 0..w {
                        let (tlo, thi) = (orig_prefix[target], orig_prefix[target + 1]);
                        let olo = lo.max(tlo);
                        let ohi = hi.min(thi);
                        if olo < ohi {
                            let nbatches = ((ohi - olo) as usize).div_ceil(KEYS_PER_BATCH);
                            demands.add(holder, target, nbatches as u32);
                        }
                    }
                }
                ctx.charge_work((w * w) as u64);
                let mut outgoing: Vec<Vec<IndexedBatch>> = vec![Vec::new(); w];
                let (lo, hi) = (bucket_prefix[*my_local], bucket_prefix[*my_local + 1]);
                for target in 0..w {
                    let (tlo, thi) = (orig_prefix[target], orig_prefix[target + 1]);
                    let olo = lo.max(tlo);
                    let ohi = hi.min(thi);
                    let mut p = olo;
                    while p < ohi {
                        let end = (p + KEYS_PER_BATCH as u64).min(ohi);
                        outgoing[target].push(IndexedBatch {
                            start: p,
                            keys: bucket[(p - lo) as usize..(end - lo) as usize].to_vec(),
                        });
                        p = end;
                    }
                }
                let mut kx = KnownExchange::member(
                    group.clone(),
                    demands,
                    outgoing,
                    Self::redist_scope(*scope),
                );
                let sends = kx.activate(ctx);
                self.redist = Some(kx);
                self.bucket.clear();
                self.out = Some(SubsetSortOutput {
                    held: Vec::new(),
                    offset: orig_prefix[*my_local],
                    member_counts: orig.clone(),
                    total,
                });
                DriverStep::sends(wrap(sends, A3Msg::Redist))
            }
            9 => {
                let step = self
                    .redist
                    .as_mut()
                    .expect("redistribution active")
                    .on_round(
                        ctx,
                        unwrap(inbox, |m| match m {
                            A3Msg::Redist(x) => x,
                            other => panic!("unexpected message in Step 8: {other:?}"),
                        }),
                    );
                DriverStep::sends(wrap(step.sends, A3Msg::Redist))
            }
            10 => {
                let step = self
                    .redist
                    .as_mut()
                    .expect("redistribution active")
                    .on_round(
                        ctx,
                        unwrap(inbox, |m| match m {
                            A3Msg::Redist(x) => x,
                            other => panic!("unexpected message in Step 8: {other:?}"),
                        }),
                    );
                let mut batches = step.output.expect("redistribution completes on round 10");
                let mut out = self.out.take().unwrap_or(SubsetSortOutput {
                    held: Vec::new(),
                    offset: 0,
                    member_counts: Vec::new(),
                    total: 0,
                });
                batches.sort_unstable_by_key(|b| b.start);
                let mut expect = out.offset;
                for b in &batches {
                    assert_eq!(b.start, expect, "gap in redistributed key ranks");
                    expect += b.keys.len() as u64;
                }
                out.held = batches.into_iter().flat_map(|b| b.keys).collect();
                ctx.charge_work(out.held.len() as u64);
                DriverStep::done(out)
            }
            _ => panic!("SubsetSort stepped past completion"),
        }
    }
}

fn wrap<M>(sends: Vec<(NodeId, M)>, f: impl Fn(M) -> A3Msg) -> Vec<(NodeId, A3Msg)> {
    sends.into_iter().map(|(d, m)| (d, f(m))).collect()
}

fn unwrap<M>(inbox: Vec<(NodeId, A3Msg)>, f: impl Fn(A3Msg) -> M) -> Vec<(NodeId, M)> {
    inbox.into_iter().map(|(s, m)| (s, f(m))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_primitives::drive;
    use cc_sim::{run_protocol, CliqueSpec};

    fn run_sort(
        n: usize,
        group: NodeGroup,
        cap: usize,
        skip_final: bool,
        keys_of: impl Fn(usize) -> Vec<u64>,
    ) -> (Vec<SubsetSortOutput>, cc_sim::Metrics) {
        let report = run_protocol(CliqueSpec::new(n).unwrap().with_budget_words(256), |me| {
            if let Some(local) = group.local_index(me) {
                let keys: Vec<TaggedKey> = keys_of(local)
                    .into_iter()
                    .enumerate()
                    .map(|(i, k)| TaggedKey::new(k, me, i as u32))
                    .collect();
                drive(SubsetSort::member(
                    group.clone(),
                    local,
                    keys,
                    cap,
                    skip_final,
                    CommonScope::new("test.a3", 0),
                ))
            } else {
                drive(SubsetSort::relay_only(skip_final))
            }
        })
        .unwrap();
        (report.outputs, report.metrics)
    }

    fn assert_globally_sorted(
        group: &NodeGroup,
        outputs: &[SubsetSortOutput],
        expected: &mut Vec<u64>,
    ) {
        let mut all: Vec<(u64, TaggedKey)> = Vec::new();
        for v in group.iter() {
            let out = &outputs[v.index()];
            for (i, k) in out.held.iter().enumerate() {
                all.push((out.offset + i as u64, *k));
            }
        }
        all.sort_unstable_by_key(|&(rank, _)| rank);
        // Ranks are exactly 0..total and keys ascend.
        for (i, &(rank, _)) in all.iter().enumerate() {
            assert_eq!(rank, i as u64);
        }
        assert!(all.windows(2).all(|w| w[0].1 <= w[1].1), "keys not sorted");
        let mut got: Vec<u64> = all.iter().map(|&(_, k)| k.key).collect();
        expected.sort_unstable();
        assert_eq!(&mut got, expected);
    }

    #[test]
    fn sorts_in_ten_rounds() {
        let n = 16;
        let group = NodeGroup::contiguous(0, 4);
        let keys_of = |local: usize| -> Vec<u64> {
            (0..2 * n)
                .map(|i| ((local * 37 + i * 101) % 997) as u64)
                .collect()
        };
        let (outputs, metrics) = run_sort(n, group.clone(), 2 * n, false, keys_of);
        assert_eq!(metrics.comm_rounds(), 10);
        let mut expected: Vec<u64> = (0..4).flat_map(keys_of).collect();
        assert_globally_sorted(&group, &outputs, &mut expected);
        // Final sizes equal input sizes.
        for v in group.iter() {
            assert_eq!(outputs[v.index()].held.len(), 2 * n);
        }
    }

    #[test]
    fn skip_final_takes_eight_rounds() {
        let n = 16;
        let group = NodeGroup::contiguous(0, 4);
        let keys_of = |local: usize| -> Vec<u64> {
            (0..n).map(|i| ((local * 13 + i * 7) % 50) as u64).collect()
        };
        let (outputs, metrics) = run_sort(n, group.clone(), n, true, keys_of);
        assert_eq!(metrics.comm_rounds(), 8);
        let mut expected: Vec<u64> = (0..4).flat_map(keys_of).collect();
        assert_globally_sorted(&group, &outputs, &mut expected);
    }

    #[test]
    fn duplicate_heavy_input_stays_balanced() {
        // All keys identical: footnote 5's tie-breaking must spread them.
        let n = 16;
        let group = NodeGroup::contiguous(0, 4);
        let (outputs, metrics) = run_sort(n, group.clone(), n, true, |_| vec![42u64; n]);
        assert_eq!(metrics.comm_rounds(), 8);
        let mut expected = vec![42u64; 4 * n];
        assert_globally_sorted(&group, &outputs, &mut expected);
        // Lemma 4.3-style balance: no member drowns.
        for v in group.iter() {
            assert!(
                outputs[v.index()].held.len() < 4 * n,
                "bucket {} exceeds the 4·cap bound",
                outputs[v.index()].held.len()
            );
        }
    }

    #[test]
    fn uneven_inputs() {
        let n = 16;
        let group = NodeGroup::contiguous(4, 4);
        let keys_of = |local: usize| -> Vec<u64> {
            (0..(local * 5) % (n + 1))
                .map(|i| (1000 - i * 3) as u64)
                .collect()
        };
        let (outputs, metrics) = run_sort(n, group.clone(), n, false, keys_of);
        assert!(metrics.comm_rounds() <= 10);
        let mut expected: Vec<u64> = (0..4).flat_map(keys_of).collect();
        assert_globally_sorted(&group, &outputs, &mut expected);
    }

    #[test]
    fn empty_input() {
        let n = 9;
        let group = NodeGroup::contiguous(0, 3);
        let (outputs, metrics) = run_sort(n, group.clone(), n, false, |_| Vec::new());
        assert!(metrics.comm_rounds() <= 10);
        for v in group.iter() {
            assert!(outputs[v.index()].held.is_empty());
        }
    }

    #[test]
    fn singleton_group() {
        let n = 4;
        let group = NodeGroup::contiguous(2, 1);
        let (outputs, metrics) = run_sort(n, group.clone(), n, false, |_| vec![9, 3, 7]);
        assert!(metrics.comm_rounds() <= 10);
        let keys: Vec<u64> = outputs[2].held.iter().map(|k| k.key).collect();
        assert_eq!(keys, vec![3, 7, 9]);
    }
}

//! Corollary 4.6 and its applications: duplicate-aware global key
//! indices, rank selection, and mode finding — all in a constant number
//! of rounds on top of Algorithm 4.
//!
//! After the 33-round sort, every node holds a contiguous batch of the
//! global order. One broadcast round of per-batch boundary summaries
//! (first/last value and their multiplicities, distinct count, best run)
//! lets every node stitch runs across batch boundaries locally, which
//! yields:
//!
//! * **selection** — the owner of rank `k` announces the key: 34 rounds;
//! * **mode** — computable locally from the summaries: 34 rounds;
//! * **global indices** — each node computes the non-repetitive index of
//!   every key in its batch, then routes `(position, index)` reports back
//!   to the keys' origins via Theorem 5.4: 33 + 1 + 12 = 46 rounds.
//!
//! Both the sort's Step 6 and the report-back are Problem 3.1 instances,
//! routed here with Theorem 5.4's 12-round router. This is an extension:
//! the paper states the sort as 37 rounds with Theorem 3.7's 16-round
//! router, which would make these 38 / 38 / 54.

use crate::error::CoreError;
use crate::routing::{OGMsg, OptRouterMachine, RoutedMessage};
use crate::sorting::full_sort::{spec_for_sorting, FsMsg, FullSortMachine, NodeBatch};
use cc_sim::util::word_bits;
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, Metrics, NodeId, NodeMachine, Payload, Step};

/// Per-batch boundary summary broadcast after the sort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Boundary {
    offset: u64,
    len: u64,
    first_val: u64,
    first_cnt: u64,
    last_val: u64,
    last_cnt: u64,
    distinct: u64,
    best_val: u64,
    best_cnt: u64,
}

impl Payload for Boundary {
    fn size_bits(&self, n: usize) -> u64 {
        // Nine values of at most two words each.
        18 * word_bits(n)
    }
}

const NONE: u64 = u64::MAX;

fn summarize(batch: &NodeBatch) -> Boundary {
    let keys = &batch.keys;
    if keys.is_empty() {
        return Boundary {
            offset: batch.offset,
            len: 0,
            first_val: NONE,
            first_cnt: 0,
            last_val: NONE,
            last_cnt: 0,
            distinct: 0,
            best_val: NONE,
            best_cnt: 0,
        };
    }
    let first_val = keys[0].key;
    let last_val = keys[keys.len() - 1].key;
    let first_cnt = keys.iter().take_while(|k| k.key == first_val).count() as u64;
    let last_cnt = keys.iter().rev().take_while(|k| k.key == last_val).count() as u64;
    let mut distinct = 0u64;
    let mut best_val = keys[0].key;
    let mut best_cnt = 0u64;
    let mut run_val = keys[0].key;
    let mut run_cnt = 0u64;
    for k in keys {
        if k.key == run_val {
            run_cnt += 1;
        } else {
            if run_cnt > best_cnt {
                best_cnt = run_cnt;
                best_val = run_val;
            }
            distinct += 1;
            run_val = k.key;
            run_cnt = 1;
        }
    }
    if run_cnt > best_cnt {
        best_cnt = run_cnt;
        best_val = run_val;
    }
    distinct += 1;
    Boundary {
        offset: batch.offset,
        len: keys.len() as u64,
        first_val,
        first_cnt,
        last_val,
        last_cnt,
        distinct,
        best_val,
        best_cnt,
    }
}

/// A `(position at origin, duplicate-aware global index)` report routed
/// back to a key's origin.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexReport {
    position: u32,
    index: u64,
}

impl Payload for IndexReport {
    fn size_bits(&self, n: usize) -> u64 {
        3 * word_bits(n)
    }
}

/// Which query the machine answers after the sort.
#[derive(Clone, Debug)]
enum Query {
    Select(u64),
    Mode,
    Indices,
}

/// Messages of the query machine.
#[derive(Clone, Debug)]
pub enum QMsg {
    /// Sort traffic.
    Fs(Box<FsMsg>),
    /// Post-sort boundary summaries.
    Bound(Boundary),
    /// Selection answer broadcast.
    Answer(u64),
    /// Index reports routed home.
    Back(Box<OGMsg<IndexReport>>),
}

impl Payload for QMsg {
    fn size_bits(&self, n: usize) -> u64 {
        2 + match self {
            QMsg::Fs(m) => m.size_bits(n),
            QMsg::Bound(b) => b.size_bits(n),
            QMsg::Answer(_) => 2 * word_bits(n),
            QMsg::Back(m) => m.size_bits(n),
        }
    }
}

/// Per-node output of a query run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// The selected key (identical on every node).
    Selected(u64),
    /// The mode and its multiplicity (identical on every node).
    Mode(u64, u64),
    /// For each of this node's input keys (by input position), its
    /// duplicate-aware index in the sorted union.
    Indices(Vec<u64>),
}

struct QueryMachine {
    inner: FullSortMachine,
    query: Query,
    n: usize,
    me: NodeId,
    call: u32,
    sort_done_call: Option<u32>,
    batch: Option<NodeBatch>,
    bounds: Vec<Option<Boundary>>,
    router: Option<OptRouterMachine<IndexReport>>,
    input_len: usize,
}

impl NodeMachine for QueryMachine {
    type Msg = QMsg;
    type Output = QueryAnswer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, QMsg>) {
        let (base, outbox) = ctx.split();
        let mut sub: Vec<(NodeId, FsMsg)> = Vec::new();
        let mut sub_ctx = Ctx::from_parts(base.reborrow(), &mut sub);
        self.inner.on_start(&mut sub_ctx);
        for (dst, m) in sub {
            outbox.push((dst, QMsg::Fs(Box::new(m))));
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, QMsg>, inbox: &mut Inbox<QMsg>) -> Step<QueryAnswer> {
        self.call += 1;
        let mut fs = Vec::new();
        let mut bounds = Vec::new();
        let mut answers = Vec::new();
        let mut back = Vec::new();
        for (src, msg) in inbox.drain() {
            match msg {
                QMsg::Fs(m) => fs.push((src, *m)),
                QMsg::Bound(b) => bounds.push((src, b)),
                QMsg::Answer(a) => answers.push(a),
                QMsg::Back(m) => back.push((src, *m)),
            }
        }

        // Phase 1: drive the sort to completion.
        if self.batch.is_none() {
            let (base, outbox) = ctx.split();
            let mut sub: Vec<(NodeId, FsMsg)> = Vec::new();
            let mut sub_inbox = Inbox::from_messages(fs);
            let mut sub_ctx = Ctx::from_parts(base.reborrow(), &mut sub);
            let step = self.inner.on_round(&mut sub_ctx, &mut sub_inbox);
            for (dst, m) in sub {
                outbox.push((dst, QMsg::Fs(Box::new(m))));
            }
            match step {
                Step::Continue => return Step::Continue,
                Step::Done(batch) => {
                    self.sort_done_call = Some(self.call);
                    match &self.query {
                        Query::Select(k) => {
                            let lo = batch.offset;
                            let hi = batch.offset + batch.keys.len() as u64;
                            if *k >= lo && *k < hi {
                                let key = batch.keys[(*k - lo) as usize].key;
                                ctx.broadcast(QMsg::Answer(key));
                            }
                        }
                        Query::Mode | Query::Indices => {
                            ctx.broadcast(QMsg::Bound(summarize(&batch)));
                        }
                    }
                    self.batch = Some(batch);
                    return Step::Continue;
                }
            }
        }

        let sort_done = self.sort_done_call.expect("batch implies sort done");
        // Phase 2: one round after the sort.
        if self.call == sort_done + 1 {
            match &self.query {
                Query::Select(_) => {
                    assert_eq!(answers.len(), 1, "exactly one node owns the rank");
                    return Step::Done(QueryAnswer::Selected(answers[0]));
                }
                Query::Mode => {
                    for (src, b) in bounds {
                        self.bounds[src.index()] = Some(b);
                    }
                    return Step::Done(self.compute_mode(ctx));
                }
                Query::Indices => {
                    for (src, b) in bounds {
                        self.bounds[src.index()] = Some(b);
                    }
                    let reports = self.compute_index_reports(ctx);
                    let mut router =
                        OptRouterMachine::from_messages(self.n, self.me, reports, 0x1D);
                    let (base, outbox) = ctx.split();
                    let mut sub: Vec<(NodeId, OGMsg<IndexReport>)> = Vec::new();
                    let mut sub_ctx = Ctx::from_parts(base.reborrow(), &mut sub);
                    router.on_start(&mut sub_ctx);
                    for (dst, m) in sub {
                        outbox.push((dst, QMsg::Back(Box::new(m))));
                    }
                    self.router = Some(router);
                    return Step::Continue;
                }
            }
        }

        // Phase 3 (indices only): route the reports home.
        let router = self.router.as_mut().expect("router active");
        let (base, outbox) = ctx.split();
        let mut sub: Vec<(NodeId, OGMsg<IndexReport>)> = Vec::new();
        let mut sub_inbox = Inbox::from_messages(back);
        let mut sub_ctx = Ctx::from_parts(base.reborrow(), &mut sub);
        let step = router.on_round(&mut sub_ctx, &mut sub_inbox);
        for (dst, m) in sub {
            outbox.push((dst, QMsg::Back(Box::new(m))));
        }
        match step {
            Step::Continue => Step::Continue,
            Step::Done(msgs) => {
                let mut indices = vec![0u64; self.input_len];
                for m in msgs {
                    indices[m.payload.position as usize] = m.payload.index;
                }
                Step::Done(QueryAnswer::Indices(indices))
            }
        }
    }
}

impl QueryMachine {
    fn new(n: usize, me: NodeId, keys: Vec<u64>, query: Query) -> Self {
        let input_len = keys.len();
        QueryMachine {
            inner: FullSortMachine::new(n, me, keys),
            query,
            n,
            me,
            call: 0,
            sort_done_call: None,
            batch: None,
            bounds: vec![None; n],
            router: None,
            input_len,
        }
    }

    /// Stitches the boundary summaries into the global mode.
    fn compute_mode(&mut self, ctx: &mut Ctx<'_, QMsg>) -> QueryAnswer {
        let mut best_val = 0u64;
        let mut best_cnt = 0u64;
        let mut run_val = NONE;
        let mut run_cnt = 0u64;
        for b in self.bounds.iter().flatten() {
            if b.len == 0 {
                continue;
            }
            // In-batch champion.
            if b.best_cnt > best_cnt {
                best_cnt = b.best_cnt;
                best_val = b.best_val;
            }
            // Cross-boundary run stitching.
            if b.first_val == run_val {
                if b.first_cnt == b.len {
                    // Entire batch continues the run.
                    run_cnt += b.len;
                } else {
                    run_cnt += b.first_cnt;
                    if run_cnt > best_cnt {
                        best_cnt = run_cnt;
                        best_val = run_val;
                    }
                    run_val = b.last_val;
                    run_cnt = b.last_cnt;
                }
            } else {
                if run_cnt > best_cnt {
                    best_cnt = run_cnt;
                    best_val = run_val;
                }
                if b.first_val == b.last_val {
                    run_val = b.first_val;
                    run_cnt = b.len;
                } else {
                    run_val = b.last_val;
                    run_cnt = b.last_cnt;
                }
            }
        }
        if run_cnt > best_cnt {
            best_cnt = run_cnt;
            best_val = run_val;
        }
        ctx.charge_work(self.n as u64);
        QueryAnswer::Mode(best_val, best_cnt)
    }

    /// Computes duplicate-aware indices for my batch and builds the
    /// route-home reports.
    fn compute_index_reports(
        &mut self,
        ctx: &mut Ctx<'_, QMsg>,
    ) -> Vec<RoutedMessage<IndexReport>> {
        let batch = self.batch.as_ref().expect("sort completed");
        // Distinct values strictly before my batch, and whether my first
        // value already appeared.
        let mut distinct_before = 0u64;
        let mut prev_last: Option<u64> = None;
        for b in self.bounds.iter().take(self.me.index()).flatten() {
            if b.len == 0 {
                continue;
            }
            let joins = prev_last == Some(b.first_val);
            distinct_before += b.distinct - u64::from(joins);
            prev_last = Some(b.last_val);
        }
        let continues = !batch.keys.is_empty() && prev_last == Some(batch.keys[0].key);
        let mut reports = Vec::with_capacity(batch.keys.len());
        let mut seq = vec![0u32; self.n];
        // Index of a value = number of strictly smaller distinct values.
        // If my first value continues a run from the previous batch, it is
        // the last of the `distinct_before` values; otherwise it is new.
        let mut index = if continues {
            distinct_before - 1
        } else {
            distinct_before
        };
        let mut prev: Option<u64> = None;
        for k in &batch.keys {
            if let Some(pv) = prev {
                if k.key != pv {
                    index += 1;
                }
            }
            prev = Some(k.key);
            let dst = k.origin;
            reports.push(RoutedMessage::new(
                self.me,
                dst,
                seq[dst.index()],
                IndexReport {
                    position: k.index_at_origin,
                    index,
                },
            ));
            seq[dst.index()] += 1;
        }
        ctx.charge_work(batch.keys.len() as u64);
        reports
    }
}

/// Outcome of a [`global_indices`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexOutcome {
    /// `indices[v][p]` is the duplicate-aware global index of node `v`'s
    /// `p`-th input key.
    pub indices: Vec<Vec<u64>>,
    /// Measurements.
    pub metrics: Metrics,
}

/// Outcome of a [`select_rank`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectOutcome {
    /// The key of the requested rank.
    pub key: u64,
    /// Measurements.
    pub metrics: Metrics,
}

/// Outcome of a [`mode_query`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeOutcome {
    /// The most frequent key value.
    pub key: u64,
    /// Its multiplicity.
    pub count: u64,
    /// Measurements.
    pub metrics: Metrics,
}

fn run_query(
    keys: &[Vec<u64>],
    query: Query,
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<(Vec<QueryAnswer>, Metrics), CoreError> {
    let n = keys.len();
    if n == 0 {
        return Err(CoreError::invalid("at least one node required"));
    }
    let machines = (0..n)
        .map(|v| QueryMachine::new(n, NodeId::new(v), keys[v].clone(), query.clone()))
        .collect();
    let report = session.run(spec, machines)?;
    Ok((report.outputs, report.metrics))
}

/// Corollary 4.6: the duplicate-aware index of every input key, returned
/// to its origin, in a constant number of rounds (33 + 1 + 12 = 46).
///
/// # Errors
///
/// Propagates instance validation and simulation failures.
pub fn global_indices(keys: &[Vec<u64>]) -> Result<IndexOutcome, CoreError> {
    // `.max(1)`: empty input must reach the graceful n == 0 error below,
    // not the spec builder's panic.
    global_indices_with_spec(keys, spec_for_sorting(keys.len().max(1)))
}

/// As [`global_indices`] with a caller-provided spec (notably its
/// [`ExecMode`](cc_sim::ExecMode)).
///
/// # Errors
///
/// See [`global_indices`].
pub fn global_indices_with_spec(
    keys: &[Vec<u64>],
    spec: CliqueSpec,
) -> Result<IndexOutcome, CoreError> {
    global_indices_on(keys, spec, &mut CliqueSession::new())
}

/// The shared driver behind [`global_indices`], on `session`.
pub(crate) fn global_indices_on(
    keys: &[Vec<u64>],
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<IndexOutcome, CoreError> {
    let (answers, metrics) = run_query(keys, Query::Indices, spec, session)?;
    let indices = answers
        .into_iter()
        .map(|a| match a {
            QueryAnswer::Indices(v) => v,
            other => panic!("unexpected answer {other:?}"),
        })
        .collect();
    Ok(IndexOutcome { indices, metrics })
}

/// Selection: the key of global rank `rank` (0-based), known to every
/// node after 34 rounds.
///
/// # Errors
///
/// Rejects out-of-range ranks; propagates simulation failures.
pub fn select_rank(keys: &[Vec<u64>], rank: u64) -> Result<SelectOutcome, CoreError> {
    select_rank_with_spec(keys, rank, spec_for_sorting(keys.len().max(1)))
}

/// As [`select_rank`] with a caller-provided spec (notably its
/// [`ExecMode`](cc_sim::ExecMode)).
///
/// # Errors
///
/// See [`select_rank`].
pub fn select_rank_with_spec(
    keys: &[Vec<u64>],
    rank: u64,
    spec: CliqueSpec,
) -> Result<SelectOutcome, CoreError> {
    select_rank_on(keys, rank, spec, &mut CliqueSession::new())
}

/// The shared driver behind [`select_rank`], on `session`.
pub(crate) fn select_rank_on(
    keys: &[Vec<u64>],
    rank: u64,
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<SelectOutcome, CoreError> {
    let total: u64 = keys.iter().map(|l| l.len() as u64).sum();
    if rank >= total {
        return Err(CoreError::invalid(format!(
            "rank {rank} out of range (total {total})"
        )));
    }
    let (answers, metrics) = run_query(keys, Query::Select(rank), spec, session)?;
    let key = match answers.first() {
        Some(QueryAnswer::Selected(k)) => *k,
        other => panic!("unexpected answer {other:?}"),
    };
    debug_assert!(answers
        .iter()
        .all(|a| matches!(a, QueryAnswer::Selected(k) if *k == key)));
    Ok(SelectOutcome { key, metrics })
}

/// Mode: the most frequent key value and its multiplicity, known to every
/// node after 34 rounds.
///
/// # Errors
///
/// Rejects empty inputs; propagates simulation failures.
pub fn mode_query(keys: &[Vec<u64>]) -> Result<ModeOutcome, CoreError> {
    mode_query_with_spec(keys, spec_for_sorting(keys.len().max(1)))
}

/// As [`mode_query`] with a caller-provided spec (notably its
/// [`ExecMode`](cc_sim::ExecMode)).
///
/// # Errors
///
/// See [`mode_query`].
pub fn mode_query_with_spec(keys: &[Vec<u64>], spec: CliqueSpec) -> Result<ModeOutcome, CoreError> {
    mode_query_on(keys, spec, &mut CliqueSession::new())
}

/// The shared driver behind [`mode_query`], on `session`.
pub(crate) fn mode_query_on(
    keys: &[Vec<u64>],
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<ModeOutcome, CoreError> {
    let total: u64 = keys.iter().map(|l| l.len() as u64).sum();
    if total == 0 {
        return Err(CoreError::invalid("mode of an empty multiset"));
    }
    let (answers, metrics) = run_query(keys, Query::Mode, spec, session)?;
    let (key, count) = match answers.first() {
        Some(QueryAnswer::Mode(k, c)) => (*k, *c),
        other => panic!("unexpected answer {other:?}"),
    };
    Ok(ModeOutcome {
        key,
        count,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort, then one round of summaries or answers.
    const QUERY_ROUNDS: u64 = FullSortMachine::ROUNDS as u64 + 1;
    /// Sort, summaries, then the 12-round report-back.
    const INDEX_ROUNDS: u64 = FullSortMachine::ROUNDS as u64 + 1 + 12;

    fn keys_for(n: usize, f: impl Fn(usize, usize) -> u64) -> Vec<Vec<u64>> {
        (0..n).map(|i| (0..n).map(|j| f(i, j)).collect()).collect()
    }

    fn reference_indices(keys: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let mut all: Vec<u64> = keys.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        keys.iter()
            .map(|list| {
                list.iter()
                    .map(|k| all.binary_search(k).expect("key present") as u64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn indices_match_reference() {
        let n = 9;
        let keys = keys_for(n, |i, j| ((i + 2 * j) % 7) as u64);
        let out = global_indices(&keys).unwrap();
        assert_eq!(out.indices, reference_indices(&keys));
        assert_eq!(out.metrics.comm_rounds(), INDEX_ROUNDS);
    }

    #[test]
    fn indices_with_all_distinct_keys() {
        let n = 9;
        let keys = keys_for(n, |i, j| (i * n + j) as u64 * 3);
        let out = global_indices(&keys).unwrap();
        assert_eq!(out.indices, reference_indices(&keys));
    }

    #[test]
    fn indices_with_all_equal_keys() {
        let n = 9;
        let keys = keys_for(n, |_, _| 42);
        let out = global_indices(&keys).unwrap();
        assert_eq!(out.indices, reference_indices(&keys));
    }

    #[test]
    fn selection_finds_median() {
        let n = 9;
        let keys = keys_for(n, |i, j| ((i * 31 + j * 17) % 1000) as u64);
        let mut all: Vec<u64> = keys.iter().flatten().copied().collect();
        all.sort_unstable();
        let rank = (all.len() / 2) as u64;
        let out = select_rank(&keys, rank).unwrap();
        assert_eq!(out.key, all[rank as usize]);
        assert_eq!(out.metrics.comm_rounds(), QUERY_ROUNDS);
    }

    #[test]
    fn selection_extremes() {
        let n = 4;
        let keys = keys_for(n, |i, j| (i * 4 + j) as u64);
        assert_eq!(select_rank(&keys, 0).unwrap().key, 0);
        assert_eq!(select_rank(&keys, 15).unwrap().key, 15);
        assert!(select_rank(&keys, 16).is_err());
    }

    #[test]
    fn mode_finds_most_frequent() {
        let n = 9;
        // Value 3 appears most often.
        let keys = keys_for(n, |i, j| {
            if (i + j) % 3 == 0 {
                3
            } else {
                (i * n + j) as u64 + 100
            }
        });
        let mut freq = std::collections::HashMap::new();
        for k in keys.iter().flatten() {
            *freq.entry(*k).or_insert(0u64) += 1;
        }
        let (&bk, &bc) = freq.iter().max_by_key(|&(_, c)| *c).unwrap();
        let out = mode_query(&keys).unwrap();
        assert_eq!(out.count, bc);
        assert_eq!(out.key, bk);
        assert_eq!(out.metrics.comm_rounds(), QUERY_ROUNDS);
    }

    #[test]
    fn mode_spanning_many_batches() {
        // One value dominates the entire input: its run spans every batch.
        let n = 9;
        let keys = keys_for(n, |_, _| 7);
        let out = mode_query(&keys).unwrap();
        assert_eq!(out.key, 7);
        assert_eq!(out.count, (n * n) as u64);
    }
}

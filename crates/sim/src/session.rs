//! Clique sessions: the simulator's one engine handle, serving one
//! protocol run or many.
//!
//! A run needs stepping workers (when its [`ExecMode`] resolves to more
//! than one), inbox/outbox buffers and the delivery scratch. For a single
//! long run that setup is noise, and [`run_protocol`](crate::run_protocol)
//! simply runs on a fresh session and drops it. For a *service* answering
//! millions of constant-round queries (the regime of Lenzen's protocols —
//! 16-round routing, 33-round sorting), it is the dominant cost, so a
//! [`CliqueSession`] keeps the expensive parts alive between runs:
//!
//! * **worker threads** are spawned once per session and parked between
//!   runs as well as between rounds (see `pool::SessionPool`) — the jobs
//!   are type-erased, so consecutive runs of *different* protocols reuse
//!   the same threads;
//! * **message buffers** (inboxes/outboxes) are recycled run-to-run in
//!   per-message-type piles, so a steady-state run performs no warm-up
//!   allocations;
//! * the **delivery scratch** and the [`CommonCache`] allocation survive
//!   across runs (the cache's *contents* are reset before every run —
//!   common knowledge is per-protocol-instance).
//!
//! Determinism is the contract: for every protocol and every
//! [`ExecMode`], a reused session produces a [`RunReport`] **bit-identical**
//! to a fresh session — recycling only ever returns *cleared* buffers, the
//! cache starts every run empty, and the chunk partition depends only on
//! the spec. A failed run ([`SimError`]) does not poison the session: its
//! buffers are recycled like any other and the next run starts from the
//! same clean state.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::common::CommonCache;
use crate::engine::{
    build_chunks, run_rounds, run_seed, step_inline, ChunkSplit, DeliveryScratch, NodeMachine,
    RunReport,
};
use crate::error::SimError;
use crate::node::NodeId;
use crate::spec::{CliqueSpec, ExecMode};

/// Aggregate counters over every run a session has executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    completed: u64,
    failed: u64,
    comm_rounds: u64,
    messages: u64,
}

impl SessionStats {
    /// Runs that finished with a [`RunReport`].
    #[inline]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Runs that ended in a [`SimError`].
    #[inline]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Total runs, successful or not (saturating, like every counter
    /// here — a soak run pins at `u64::MAX` instead of wrapping).
    #[inline]
    pub fn runs(&self) -> u64 {
        self.completed.saturating_add(self.failed)
    }

    /// Communication rounds summed over all completed runs.
    #[inline]
    pub fn comm_rounds(&self) -> u64 {
        self.comm_rounds
    }

    /// Messages delivered summed over all completed runs.
    #[inline]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    // Saturating on purpose: a long soak run must degrade to a pinned
    // ceiling, never wrap in release or panic in debug.
    fn record<O>(&mut self, result: &Result<RunReport<O>, SimError>) {
        match result {
            Ok(report) => {
                self.completed = self.completed.saturating_add(1);
                self.comm_rounds = self
                    .comm_rounds
                    .saturating_add(report.metrics.comm_rounds());
                self.messages = self
                    .messages
                    .saturating_add(report.metrics.total_messages());
            }
            Err(_) => self.failed = self.failed.saturating_add(1),
        }
    }
}

/// The outcome of [`CliqueSession::run_many`]: per-run results plus the
/// batch's aggregate throughput.
#[derive(Debug)]
pub struct BatchReport<O> {
    /// One result per submitted instance, in submission order. A failed
    /// run does not abort the batch; later instances still execute.
    pub runs: Vec<Result<RunReport<O>, SimError>>,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl<O> BatchReport<O> {
    /// Number of runs that completed successfully.
    pub fn completed(&self) -> usize {
        self.runs.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of runs that failed.
    pub fn failed(&self) -> usize {
        self.runs.len() - self.completed()
    }

    /// Communication rounds summed over the completed runs (saturating).
    pub fn total_comm_rounds(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .fold(0u64, |acc, r| acc.saturating_add(r.metrics.comm_rounds()))
    }

    /// Messages delivered summed over the completed runs (saturating).
    pub fn total_messages(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .fold(0u64, |acc, r| {
                acc.saturating_add(r.metrics.total_messages())
            })
    }

    /// Completed runs per wall-clock second (0 when nothing completed or
    /// the batch was too fast to time).
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }
}

/// The simulation substrate: worker threads, message-buffer piles,
/// delivery scratch and the common-knowledge cache all survive across
/// protocol runs. Drop it to join its workers;
/// [`run_protocol`](crate::run_protocol) is the one-run shorthand.
///
/// ```rust
/// use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, NodeMachine, Step};
///
/// struct Echo;
/// impl NodeMachine for Echo {
///     type Msg = u64;
///     type Output = u64;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
///         ctx.broadcast(ctx.me().index() as u64);
///     }
///     fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
///         Step::Done(inbox.drain().map(|(_, m)| m).sum())
///     }
/// }
///
/// # fn main() -> Result<(), cc_sim::SimError> {
/// let mut session = CliqueSession::new();
/// let spec = CliqueSpec::new(8)?;
/// for _ in 0..3 {
///     let machines = (0..8).map(|_| Echo).collect();
///     let report = session.run(spec.clone(), machines)?;
///     assert_eq!(report.metrics.comm_rounds(), 1);
/// }
/// assert_eq!(session.stats().completed(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct CliqueSession {
    /// Shared so `'static` session workers can hold it across a round;
    /// contents are reset before every run.
    common: Arc<CommonCache>,
    pool: crate::pool::SessionPool,
    /// Cleared, capacity-retaining message buffers, one pile per message
    /// type (different protocols recycle independently).
    piles: HashMap<TypeId, Box<dyn Any + Send>>,
    scratch: DeliveryScratch,
    stats: SessionStats,
}

impl std::fmt::Debug for CliqueSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CliqueSession")
            .field("stats", &self.stats)
            .field("message_types", &self.piles.len())
            .finish_non_exhaustive()
    }
}

impl CliqueSession {
    /// Creates an empty session. Worker threads are spawned lazily on the
    /// first run whose [`ExecMode`] resolves to more than one worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate counters over every run so far.
    #[inline]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of live stepping workers (0 until a parallel run spawned
    /// some; the pool never shrinks).
    pub fn worker_threads(&self) -> usize {
        self.pool.workers()
    }

    /// Runs one protocol instance to completion on the session's recycled
    /// substrate.
    ///
    /// The execution mode comes from [`CliqueSpec::exec`]; every mode
    /// produces a bit-identical [`RunReport`] for a deterministic
    /// protocol, on a fresh session or a reused one — only wall-clock
    /// time differs. The `'static` bounds exist because session workers
    /// outlive any single run.
    ///
    /// # Errors
    ///
    /// * [`SimError::NodeCountMismatch`] — `machines.len() != spec.n()`.
    /// * [`SimError::BudgetExceeded`] — a directed edge carried more bits
    ///   in one round than the spec allows.
    /// * [`SimError::TooManyRounds`] — the configured round limit was hit.
    /// * [`SimError::Stalled`] — a round passed with no messages and no
    ///   node finishing.
    /// * [`SimError::MessageToFinishedNode`] /
    ///   [`SimError::DestinationOutOfRange`] — protocol addressing bugs.
    ///
    /// Model violations are detected during the (always sequential)
    /// delivery pass, scanning senders in ascending order and each
    /// sender's destinations in ascending order — so the reported
    /// violation is the lowest `(src, dst)` pair, independent of how many
    /// stepping workers the mode resolves to. Messages still queued when
    /// every node has finished follow the same rule: the lowest-id sender
    /// is reported with its lowest queued in-range destination
    /// ([`SimError::MessageToFinishedNode`]), or — when every queued
    /// destination is out of range — with its lowest out-of-range one
    /// ([`SimError::DestinationOutOfRange`]). An error leaves the session
    /// fully reusable.
    pub fn run<N>(
        &mut self,
        spec: CliqueSpec,
        machines: Vec<N>,
    ) -> Result<RunReport<N::Output>, SimError>
    where
        N: NodeMachine + 'static,
        N::Msg: 'static,
        N::Output: 'static,
    {
        if machines.len() != spec.n() {
            let result = Err(SimError::NodeCountMismatch {
                expected: spec.n(),
                actual: machines.len(),
            });
            self.stats.record(&result);
            return result;
        }
        // Every run starts from an empty cache: common knowledge is
        // per-instance, and a stale entry would either leak another
        // run's value or trip the divergence assertion.
        self.common.reset();
        let result = self.run_prepared(&spec, machines);
        self.stats.record(&result);
        result
    }

    /// As [`CliqueSession::run`], building machines with a closure of the
    /// node id.
    ///
    /// # Errors
    ///
    /// See [`CliqueSession::run`].
    pub fn run_protocol<N, F>(
        &mut self,
        spec: CliqueSpec,
        make: F,
    ) -> Result<RunReport<N::Output>, SimError>
    where
        N: NodeMachine + 'static,
        N::Msg: 'static,
        N::Output: 'static,
        F: FnMut(NodeId) -> N,
    {
        let machines = (0..spec.n()).map(NodeId::new).map(make).collect();
        self.run(spec, machines)
    }

    /// Executes a batch of instances back-to-back on the same substrate,
    /// returning per-run reports plus aggregate throughput. A failed run
    /// does not abort the batch (its error is recorded in place and the
    /// session stays clean for the next instance).
    pub fn run_many<N, I>(&mut self, instances: I) -> BatchReport<N::Output>
    where
        N: NodeMachine + 'static,
        N::Msg: 'static,
        N::Output: 'static,
        I: IntoIterator<Item = (CliqueSpec, Vec<N>)>,
    {
        let started = Instant::now();
        let runs = instances
            .into_iter()
            .map(|(spec, machines)| self.run(spec, machines))
            .collect();
        BatchReport {
            runs,
            elapsed: started.elapsed(),
        }
    }

    /// The mode dispatch of [`CliqueSession::run`]: the seed engine, or
    /// the optimized engine against the session-owned arenas.
    fn run_prepared<N>(
        &mut self,
        spec: &CliqueSpec,
        machines: Vec<N>,
    ) -> Result<RunReport<N::Output>, SimError>
    where
        N: NodeMachine + 'static,
        N::Msg: 'static,
        N::Output: 'static,
    {
        let mode = spec.exec();
        if mode == ExecMode::SeedReference {
            // The seed engine allocates everything fresh by design (it is
            // the determinism oracle); the session only lends its cache.
            return run_seed(spec, machines, &self.common);
        }
        let n = spec.n();
        let threads = mode.worker_threads(n);
        let split = ChunkSplit::new(n, threads);
        let mut pile = self.take_pile::<N::Msg>();
        let mut chunks = build_chunks(machines, &split, &mut pile);
        self.scratch.reset(n);

        let result = self.step_chunks(spec, &mut chunks, split);

        // Success or failure, every buffer goes back to the pile cleared.
        for chunk in &mut chunks {
            chunk.recycle_into(&mut pile);
        }
        self.piles.insert(TypeId::of::<N::Msg>(), Box::new(pile));
        result
    }

    /// Runs the round loop: on the session pool when the mode resolved to
    /// more than one chunk, inline otherwise.
    fn step_chunks<N>(
        &mut self,
        spec: &CliqueSpec,
        chunks: &mut [crate::engine::NodeChunk<N>],
        split: ChunkSplit,
    ) -> Result<RunReport<N::Output>, SimError>
    where
        N: NodeMachine + 'static,
        N::Msg: 'static,
        N::Output: 'static,
    {
        let n = spec.n();
        let common = Arc::clone(&self.common);
        if chunks.len() > 1 {
            let pool = &mut self.pool;
            pool.ensure_workers(chunks.len());
            return run_rounds(
                spec,
                &common,
                chunks,
                split,
                &mut self.scratch,
                |round, chunks, _| pool.step_round(round, n, &common, chunks),
            );
        }
        run_rounds(
            spec,
            &common,
            chunks,
            split,
            &mut self.scratch,
            step_inline(n),
        )
    }

    /// Takes the recycled-buffer pile for message type `M` out of the
    /// session (an empty pile on the first run of a type). The pile is
    /// keyed — and its `Box<dyn Any>` downcast guaranteed — by `M`'s
    /// `TypeId`.
    fn take_pile<M: Send + 'static>(&mut self) -> Vec<Vec<(NodeId, M)>> {
        self.piles
            .remove(&TypeId::of::<M>())
            .map(|pile| {
                *pile
                    .downcast::<Vec<Vec<(NodeId, M)>>>()
                    .expect("pile is keyed by its message TypeId")
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Step};
    use crate::inbox::Inbox;

    /// All-to-all broadcast for `rounds` rounds; output is the running sum.
    struct Chatter {
        rounds: u32,
        done: u32,
        acc: u64,
    }

    impl Chatter {
        fn fleet(n: usize, rounds: u32) -> Vec<Chatter> {
            (0..n)
                .map(|_| Chatter {
                    rounds,
                    done: 0,
                    acc: 0,
                })
                .collect()
        }
    }

    impl NodeMachine for Chatter {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(ctx.me().index() as u64);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
            self.acc += inbox.drain().map(|(_, m)| m).sum::<u64>();
            self.done += 1;
            if self.done >= self.rounds {
                return Step::Done(self.acc);
            }
            ctx.broadcast(self.acc % 97);
            Step::Continue
        }
    }

    /// Node 1 sends to node 0 after node 0 has finished: a guaranteed
    /// `MessageToFinishedNode`.
    struct Late {
        me: usize,
    }

    impl NodeMachine for Late {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.me == 1 {
                ctx.send(NodeId::new(0), 7);
            }
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
            let _ = inbox.drain().count();
            if self.me == 0 || ctx.round() == 2 {
                return Step::Done(());
            }
            ctx.send(NodeId::new(0), 9);
            Step::Continue
        }
    }

    fn spec(n: usize, mode: ExecMode) -> CliqueSpec {
        CliqueSpec::new(n).unwrap().with_exec(mode)
    }

    #[test]
    fn reused_session_matches_fresh_simulator() {
        let n = 12;
        let mut session = CliqueSession::new();
        for round_count in [1u32, 3, 2] {
            let fresh = CliqueSession::new()
                .run(
                    spec(n, ExecMode::Sequential),
                    Chatter::fleet(n, round_count),
                )
                .unwrap();
            let reused = session
                .run(
                    spec(n, ExecMode::Sequential),
                    Chatter::fleet(n, round_count),
                )
                .unwrap();
            assert_eq!(fresh, reused);
        }
        assert_eq!(session.stats().completed(), 3);
        assert_eq!(session.stats().failed(), 0);
    }

    #[test]
    fn failed_run_does_not_poison_the_session() {
        let n = 8;
        let mut session = CliqueSession::new();
        let ok_before = session
            .run(spec(n, ExecMode::Sequential), Chatter::fleet(n, 2))
            .unwrap();
        let err = session
            .run(
                spec(2, ExecMode::Sequential),
                vec![Late { me: 0 }, Late { me: 1 }],
            )
            .unwrap_err();
        assert!(matches!(err, SimError::MessageToFinishedNode { .. }));
        let ok_after = session
            .run(spec(n, ExecMode::Sequential), Chatter::fleet(n, 2))
            .unwrap();
        assert_eq!(ok_before, ok_after);
        assert_eq!(session.stats().runs(), 3);
        assert_eq!(session.stats().failed(), 1);
    }

    /// Soak-run protection: counters already at the ceiling must stay
    /// pinned there on further records — a plain `+=` would wrap in
    /// release builds and panic in debug.
    #[test]
    fn session_stats_saturate_instead_of_overflowing() {
        let mut stats = SessionStats {
            completed: u64::MAX,
            failed: u64::MAX,
            comm_rounds: u64::MAX,
            messages: u64::MAX,
        };
        assert_eq!(stats.runs(), u64::MAX);
        let ok: Result<RunReport<()>, SimError> = Ok(RunReport {
            outputs: Vec::new(),
            metrics: crate::metrics::Metrics::new(false, 0),
        });
        stats.record(&ok);
        let err: Result<RunReport<()>, SimError> = Err(SimError::InvalidSpec {
            reason: "soak".into(),
        });
        stats.record(&err);
        assert_eq!(stats.completed(), u64::MAX);
        assert_eq!(stats.failed(), u64::MAX);
        assert_eq!(stats.comm_rounds(), u64::MAX);
        assert_eq!(stats.messages(), u64::MAX);
        assert_eq!(stats.runs(), u64::MAX);
    }

    #[test]
    fn mixed_message_types_share_one_session() {
        let n = 6;
        let mut session = CliqueSession::new();
        let words = session
            .run(spec(n, ExecMode::Sequential), Chatter::fleet(n, 1))
            .unwrap();
        // A second protocol with a different message type: unit pulses.
        struct Pulse;
        impl NodeMachine for Pulse {
            type Msg = ();
            type Output = usize;
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.broadcast(());
            }
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, inbox: &mut Inbox<()>) -> Step<usize> {
                Step::Done(inbox.drain().count())
            }
        }
        let pulses = session
            .run(
                spec(n, ExecMode::Sequential),
                (0..n).map(|_| Pulse).collect(),
            )
            .unwrap();
        assert_eq!(pulses.outputs, vec![n; n]);
        let words_again = session
            .run(spec(n, ExecMode::Sequential), Chatter::fleet(n, 1))
            .unwrap();
        assert_eq!(words, words_again);
    }

    #[test]
    fn run_many_reports_batch_throughput() {
        let n = 5;
        let mut session = CliqueSession::new();
        let batch: Vec<(CliqueSpec, Vec<Chatter>)> = (0..4)
            .map(|i| (spec(n, ExecMode::Sequential), Chatter::fleet(n, 1 + i % 2)))
            .collect();
        let report = session.run_many(batch);
        assert_eq!(report.completed(), 4);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.total_comm_rounds(), 1 + 2 + 1 + 2);
        assert!(report.total_messages() > 0);
        assert_eq!(session.stats().completed(), 4);
    }

    #[test]
    fn run_many_continues_past_a_failure() {
        let mut session = CliqueSession::new();
        let batch = vec![
            (
                spec(2, ExecMode::Sequential),
                vec![Late { me: 0 }, Late { me: 1 }],
            ),
            // Wrong machine count: construction-time error, also mid-batch.
            (spec(3, ExecMode::Sequential), vec![Late { me: 0 }]),
        ];
        let report = session.run_many(batch);
        assert_eq!(report.failed(), 2);
        assert!(matches!(
            report.runs[1],
            Err(SimError::NodeCountMismatch { .. })
        ));
        // The session still works.
        let ok = session
            .run(spec(4, ExecMode::Sequential), Chatter::fleet(4, 1))
            .unwrap();
        assert_eq!(ok.outputs.len(), 4);
    }

    /// The server layer above (`cc-server`) moves whole sessions into
    /// shard worker threads; this compile-time assertion is the contract
    /// that lets it. `Sync` is *not* claimed — a session is a `&mut self`
    /// substrate, shared across threads by ownership transfer only.
    #[test]
    fn session_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CliqueSession>();
        assert_send::<SessionStats>();
        assert_send::<BatchReport<u64>>();
        assert_send::<RunReport<Vec<u64>>>();
    }

    /// `runs_per_sec` must stay finite for batches too fast to time —
    /// runs of tiny cliques can complete within one clock tick,
    /// and a `completed / 0.0` division would report `inf` (or `NaN` for
    /// an empty batch). Pinned: zero elapsed reports zero throughput.
    #[test]
    fn runs_per_sec_is_finite_for_zero_duration_batches() {
        let empty: BatchReport<u64> = BatchReport {
            runs: Vec::new(),
            elapsed: Duration::ZERO,
        };
        assert_eq!(empty.runs_per_sec(), 0.0);

        let instant: BatchReport<u64> = BatchReport {
            runs: vec![Ok(RunReport {
                outputs: vec![7],
                metrics: crate::Metrics::default(),
            })],
            elapsed: Duration::ZERO,
        };
        assert_eq!(instant.completed(), 1);
        assert_eq!(instant.runs_per_sec(), 0.0);
        assert!(instant.runs_per_sec().is_finite());

        // A timed batch still reports real throughput.
        let timed: BatchReport<u64> = BatchReport {
            runs: vec![Ok(RunReport {
                outputs: vec![7],
                metrics: crate::Metrics::default(),
            })],
            elapsed: Duration::from_millis(500),
        };
        assert_eq!(timed.runs_per_sec(), 2.0);
    }

    #[test]
    fn parallel_session_reuses_workers_across_runs() {
        let n = 16;
        let mut session = CliqueSession::new();
        let mode = ExecMode::Parallel { threads: 3 };
        let first = session.run(spec(n, mode), Chatter::fleet(n, 2)).unwrap();
        assert_eq!(session.worker_threads(), 3);
        let fresh = CliqueSession::new()
            .run(spec(n, mode), Chatter::fleet(n, 2))
            .unwrap();
        assert_eq!(first, fresh);
        // A wider run grows the pool; a narrower one reuses a subset.
        let _ = session
            .run(
                spec(n, ExecMode::Parallel { threads: 5 }),
                Chatter::fleet(n, 1),
            )
            .unwrap();
        assert_eq!(session.worker_threads(), 5);
        let _ = session
            .run(
                spec(n, ExecMode::Parallel { threads: 2 }),
                Chatter::fleet(n, 1),
            )
            .unwrap();
        assert_eq!(session.worker_threads(), 5);
    }
}

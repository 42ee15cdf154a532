//! Session-reuse determinism: a [`CliqueSession`] reused across many
//! runs — including runs of *different* protocols and runs that fail —
//! must produce `RunReport`s bit-identical to a fresh session for every
//! execution mode. This is the contract that lets the service
//! layer (`cc-core`'s `CliqueService`) amortize setup without ever
//! changing an answer.

use cc_sim::{
    run_protocol, CliqueSession, CliqueSpec, Ctx, ExecMode, Inbox, NodeId, NodeMachine, Payload,
    RunReport, SimError, Step,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every mode the session must agree with a fresh session on.
fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Auto,
        ExecMode::Sequential,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 5 },
        ExecMode::Parallel { threads: 0 },
        ExecMode::SeedReference,
    ]
}

/// A multi-round protocol with sender-dependent fan-out: every node
/// relays a mixing sum to a sliding window of peers, so inbox ordering,
/// metrics, and work meters all depend on delivery discipline.
struct Mixer {
    rounds: u32,
    done: u32,
    acc: u64,
}

fn mixers(n: usize, rounds: u32) -> Vec<Mixer> {
    (0..n)
        .map(|_| Mixer {
            rounds,
            done: 0,
            acc: 0,
        })
        .collect()
}

impl NodeMachine for Mixer {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me().index();
        for k in 0..1 + me % 3 {
            ctx.send(NodeId::new((me + k + 1) % ctx.n()), (me * 7 + k) as u64);
        }
        ctx.charge_work(3);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        for (src, m) in inbox.drain() {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(m ^ src.index() as u64);
        }
        ctx.charge_work(1 + self.acc % 5);
        self.done += 1;
        if self.done >= self.rounds {
            return Step::Done(self.acc);
        }
        let me = ctx.me().index();
        for k in 0..1 + (me + self.done as usize) % 2 {
            ctx.send(
                NodeId::new((me + 2 * k + 1) % ctx.n()),
                self.acc % 1_000_000,
            );
        }
        Step::Continue
    }
}

/// Node 1 sends to node 0 after node 0 finished — a deterministic
/// mid-batch failure.
struct Poisoner {
    me: usize,
}

impl NodeMachine for Poisoner {
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
    CliqueSpec::new(n)
        .unwrap()
        .with_edge_histogram(true)
        .with_exec(mode)
}

fn fresh_report(n: usize, mode: ExecMode, rounds: u32) -> RunReport<u64> {
    CliqueSession::new()
        .run(spec(n, mode), mixers(n, rounds))
        .unwrap()
}

/// The tentpole assertion: one session, reused across every mode and
/// several workload shapes, against a fresh session each time.
#[test]
fn reused_session_is_bit_identical_to_fresh_simulator_in_every_mode() {
    let n = 24;
    let mut session = CliqueSession::new();
    // Reuse the session across modes *and* run shapes; every single
    // answer must match its fresh-session twin, including metrics,
    // histograms and per-node work meters (RunReport compares by value).
    for round_count in [1u32, 4] {
        for mode in all_modes() {
            let fresh = fresh_report(n, mode, round_count);
            let reused = session
                .run(spec(n, mode), mixers(n, round_count))
                .unwrap_or_else(|e| panic!("session run failed under {mode:?}: {e:?}"));
            assert_eq!(fresh, reused, "divergence under {mode:?} x{round_count}");
        }
    }
    assert_eq!(session.stats().completed(), 2 * all_modes().len() as u64);
}

/// Clique sizes may change run-to-run on one session (the arenas resize).
#[test]
fn session_survives_changing_clique_sizes() {
    let mut session = CliqueSession::new();
    for n in [4usize, 32, 7, 64, 3] {
        let mode = ExecMode::Parallel { threads: 3 };
        let fresh = fresh_report(n, mode, 2);
        let reused = session.run(spec(n, mode), mixers(n, 2)).unwrap();
        assert_eq!(fresh, reused, "divergence at n={n}");
    }
}

/// A failed run mid-batch must not change any later answer: the error
/// itself must be identical to the fresh session's, and follow-up runs
/// must still be bit-identical in every mode.
#[test]
fn failed_run_mid_batch_does_not_poison_the_session() {
    let n = 16;
    let mut session = CliqueSession::new();
    for mode in all_modes() {
        let before = session.run(spec(n, mode), mixers(n, 2)).unwrap();
        let fresh_err = run_protocol(spec(2, mode), |me| Poisoner { me: me.index() }).unwrap_err();
        let session_err = session
            .run(spec(2, mode), vec![Poisoner { me: 0 }, Poisoner { me: 1 }])
            .unwrap_err();
        assert_eq!(fresh_err, session_err, "error diverged under {mode:?}");
        assert!(matches!(
            session_err,
            SimError::MessageToFinishedNode { .. }
        ));
        let after = session.run(spec(n, mode), mixers(n, 2)).unwrap();
        assert_eq!(before, after, "post-failure divergence under {mode:?}");
    }
    assert_eq!(session.stats().failed(), all_modes().len() as u64);
}

/// Interleaving two protocols with different message types on one session
/// must not perturb either (piles are segregated by message type).
#[test]
fn interleaved_protocols_stay_bit_identical() {
    struct Pulse;
    impl NodeMachine for Pulse {
        type Msg = (u64, u64);
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, (u64, u64)>) {
            let me = ctx.me().index() as u64;
            ctx.broadcast((me, me * me));
        }
        fn on_round(
            &mut self,
            _ctx: &mut Ctx<'_, (u64, u64)>,
            inbox: &mut Inbox<(u64, u64)>,
        ) -> Step<u64> {
            Step::Done(inbox.drain().map(|(_, (a, b))| a + b).sum())
        }
    }
    let n = 12;
    let mode = ExecMode::Parallel { threads: 2 };
    let mut session = CliqueSession::new();
    for _ in 0..3 {
        let mixed = session.run(spec(n, mode), mixers(n, 3)).unwrap();
        assert_eq!(mixed, fresh_report(n, mode, 3));
        let pulses = session
            .run(spec(n, mode), (0..n).map(|_| Pulse).collect())
            .unwrap();
        let fresh_pulses = run_protocol(spec(n, mode), |_| Pulse).unwrap();
        assert_eq!(pulses, fresh_pulses);
    }
}

/// A protocol panic inside a parallel stepping worker aborts only that
/// run: the driver drains every in-flight job before re-raising, so no
/// stale worker can touch the session's shared state after the next run
/// has reset it — later answers stay bit-identical to fresh sessions.
#[test]
fn worker_panic_aborts_the_run_but_not_the_session() {
    struct Bomb {
        me: usize,
    }
    impl NodeMachine for Bomb {
        type Msg = u64;
        type Output = ();
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
            if self.me == 0 {
                panic!("protocol bug on node 0");
            }
            Step::Done(())
        }
    }
    let n = 16;
    let mode = ExecMode::Parallel { threads: 4 };
    let mut session = CliqueSession::new();
    let before = session.run(spec(n, mode), mixers(n, 2)).unwrap();
    for _ in 0..2 {
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            session.run(
                spec(n, mode),
                (0..n).map(|me| Bomb { me }).collect::<Vec<_>>(),
            )
        }));
        assert!(panicked.is_err(), "the protocol bug must propagate");
        let after = session.run(spec(n, mode), mixers(n, 2)).unwrap();
        assert_eq!(before, after, "post-panic divergence");
    }
}

/// A panic unwinding out of the *delivery* pass (a user `size_bits`)
/// must not leave stale per-destination counters in the session scratch:
/// later runs still validate and meter every destination exactly like a
/// fresh session.
#[test]
fn delivery_pass_panic_does_not_leave_stale_scratch() {
    #[derive(Clone, Debug)]
    struct Volatile(u64);
    impl Payload for Volatile {
        fn size_bits(&self, n: usize) -> u64 {
            assert!(self.0 != u64::MAX, "poisoned payload reached the wire");
            cc_sim::util::word_bits(n)
        }
    }
    struct Spray {
        poison: bool,
    }
    impl NodeMachine for Spray {
        type Msg = Volatile;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Volatile>) {
            let me = ctx.me().index() as u64;
            // Several clean messages first, so the counting pass dirties
            // scratch entries before the poisoned one unwinds.
            for v in ctx.nodes() {
                ctx.send(v, Volatile(me));
            }
            if self.poison && ctx.me().index() == 0 {
                ctx.send(NodeId::new(1), Volatile(u64::MAX));
            }
        }
        fn on_round(
            &mut self,
            _ctx: &mut Ctx<'_, Volatile>,
            inbox: &mut Inbox<Volatile>,
        ) -> Step<u64> {
            Step::Done(inbox.drain().map(|(_, m)| m.0).sum())
        }
    }
    let n = 8;
    let mode = ExecMode::Sequential;
    let mut session = CliqueSession::new();
    let clean = |poison| (0..n).map(move |_| Spray { poison }).collect::<Vec<_>>();
    let fresh = CliqueSession::new()
        .run(spec(n, mode), clean(false))
        .unwrap();
    let panicked = catch_unwind(AssertUnwindSafe(|| session.run(spec(n, mode), clean(true))));
    assert!(panicked.is_err(), "the poisoned payload must propagate");
    // Same destinations, clean payloads: every message must be delivered,
    // metered and budget-checked exactly like on a fresh session.
    let recovered = session.run(spec(n, mode), clean(false)).unwrap();
    assert_eq!(fresh, recovered);
}

/// `run_many` batches answer exactly like individual fresh runs, and the
/// batch report's aggregates agree with the per-run metrics.
#[test]
fn run_many_matches_fresh_runs_and_aggregates() {
    let n = 10;
    let mut session = CliqueSession::new();
    let batch: Vec<(CliqueSpec, Vec<Mixer>)> = all_modes()
        .into_iter()
        .map(|mode| (spec(n, mode), mixers(n, 2)))
        .collect();
    let report = session.run_many(batch);
    assert_eq!(report.failed(), 0);
    let mut rounds = 0;
    let mut messages = 0;
    for (mode, run) in all_modes().iter().zip(&report.runs) {
        let run = run.as_ref().unwrap();
        assert_eq!(run, &fresh_report(n, *mode, 2), "divergence under {mode:?}");
        rounds += run.metrics.comm_rounds();
        messages += run.metrics.total_messages();
    }
    assert_eq!(report.total_comm_rounds(), rounds);
    assert_eq!(report.total_messages(), messages);
    assert_eq!(session.stats().comm_rounds(), rounds);
    assert_eq!(session.stats().messages(), messages);
}

//! Engine integration: multi-phase protocols, budget boundaries, the
//! histogram, virtualized sub-cliques, and liveness guards.

use cc_sim::{run_protocol, CliqueSpec, Ctx, Inbox, NodeId, NodeMachine, Payload, SimError, Step};

/// A configurable k-phase all-to-all: phase t sends (t+1) words per edge.
struct Phased {
    phases: u32,
    done: u32,
    words_per_phase: u64,
}

#[derive(Clone, Debug)]
struct Words(u64);
impl Payload for Words {
    fn size_bits(&self, n: usize) -> u64 {
        self.0 * cc_sim::util::word_bits(n)
    }
}

impl NodeMachine for Phased {
    type Msg = Words;
    type Output = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Words>) {
        ctx.broadcast(Words(self.words_per_phase));
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Words>, inbox: &mut Inbox<Words>) -> Step<u32> {
        let received = inbox.drain().count() as u32;
        self.done += 1;
        if self.done >= self.phases {
            return Step::Done(received);
        }
        ctx.broadcast(Words(self.words_per_phase));
        Step::Continue
    }
}

#[test]
fn phase_count_equals_round_count() {
    for phases in [1u32, 3, 7] {
        let report = run_protocol(CliqueSpec::new(8).unwrap(), |_| Phased {
            phases,
            done: 0,
            words_per_phase: 2,
        })
        .unwrap();
        assert_eq!(report.metrics.comm_rounds(), u64::from(phases));
        assert!(report.outputs.iter().all(|&r| r == 8));
    }
}

#[test]
fn budget_boundary_is_exact() {
    // words_per_phase == budget words passes; +1 fails.
    let n = 8;
    let budget_words = 5u64;
    let ok = run_protocol(
        CliqueSpec::new(n).unwrap().with_budget_words(budget_words),
        |_| Phased {
            phases: 1,
            done: 0,
            words_per_phase: budget_words,
        },
    );
    assert!(ok.is_ok());
    let err = run_protocol(
        CliqueSpec::new(n).unwrap().with_budget_words(budget_words),
        |_| Phased {
            phases: 1,
            done: 0,
            words_per_phase: budget_words + 1,
        },
    )
    .unwrap_err();
    assert!(matches!(err, SimError::BudgetExceeded { .. }));
}

#[test]
fn histogram_accounts_every_busy_edge() {
    let n = 6;
    let spec = CliqueSpec::new(n).unwrap().with_edge_histogram(true);
    let report = run_protocol(spec, |_| Phased {
        phases: 2,
        done: 0,
        words_per_phase: 1,
    })
    .unwrap();
    let hist = report.metrics.edge_histogram().expect("enabled");
    // 2 rounds × n² busy directed edges (self-loops included).
    assert_eq!(hist.total_observations(), 2 * (n * n) as u64);
    assert_eq!(hist.max_load(), cc_sim::util::word_bits(n));
}

#[test]
fn per_round_metrics_sum_to_totals() {
    let n = 5;
    let report = run_protocol(CliqueSpec::new(n).unwrap(), |_| Phased {
        phases: 4,
        done: 0,
        words_per_phase: 1,
    })
    .unwrap();
    let m = &report.metrics;
    let sum_msgs: u64 = m.rounds().iter().map(|r| r.messages).sum();
    let sum_bits: u64 = m.rounds().iter().map(|r| r.bits).sum();
    assert_eq!(sum_msgs, m.total_messages());
    assert_eq!(sum_bits, m.total_bits());
    assert_eq!(
        m.max_edge_bits(),
        m.rounds().iter().map(|r| r.max_edge_bits).max().unwrap()
    );
}

/// Nodes 0..k run a virtual sub-clique via `virtualized` contexts; the
/// remaining nodes idle. Exercises the id-translation seam the general-n
/// routing depends on.
struct SubClique {
    k: usize,
    me: NodeId,
    got: u64,
}

impl NodeMachine for SubClique {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.me.index() >= self.k {
            return;
        }
        let k = self.k;
        let me = self.me;
        let (base, outbox) = ctx.split();
        let vctx = base.virtualized(me, k);
        assert_eq!(vctx.n(), k);
        for v in 0..k {
            outbox.push((NodeId::new(v), me.raw() as u64));
        }
    }

    fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        self.got = inbox.drain().map(|(_, m)| m).sum();
        Step::Done(self.got)
    }
}

#[test]
fn virtualized_contexts_scope_identity() {
    let n = 10;
    let k = 4;
    let report = run_protocol(CliqueSpec::new(n).unwrap(), |me| SubClique {
        k,
        me,
        got: 0,
    })
    .unwrap();
    let expected: u64 = (0..k as u64).sum();
    for v in 0..n {
        if v < k {
            assert_eq!(report.outputs[v], expected);
        } else {
            assert_eq!(report.outputs[v], 0);
        }
    }
}

/// Silent-round tolerance: a protocol pausing for `gap` silent rounds
/// survives iff gap ≤ max_silent_rounds.
struct Napper {
    wake_at: u64,
}

impl NodeMachine for Napper {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 0);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        if ctx.round() >= self.wake_at {
            return Step::Done(());
        }
        if ctx.round() == 1 {
            // Go silent until wake_at.
        }
        Step::Continue
    }
}

#[test]
fn bounded_silence_is_tolerated() {
    let spec = CliqueSpec::new(3).unwrap().with_max_silent_rounds(10);
    assert!(run_protocol(spec, |_| Napper { wake_at: 8 }).is_ok());
}

#[test]
fn unbounded_silence_stalls() {
    let spec = CliqueSpec::new(3).unwrap().with_max_silent_rounds(5);
    let err = run_protocol(spec, |_| Napper { wake_at: 50 }).unwrap_err();
    assert!(matches!(err, SimError::Stalled { .. }));
}

#[test]
fn common_cache_divergence_panics_inside_protocol() {
    struct Diverger {
        me: NodeId,
    }
    impl NodeMachine for Diverger {
        type Msg = u64;
        type Output = ();

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
            // Each node claims a different "common" input — the cache
            // must catch the second caller.
            let bad_hash = self.me.raw() as u64;
            let _ = ctx.common().get_or_compute(
                cc_sim::CommonScope::new("diverge", 0),
                bad_hash,
                || 1u32,
            );
            Step::Done(())
        }
    }
    let result = std::panic::catch_unwind(|| {
        let _ = run_protocol(CliqueSpec::new(3).unwrap(), |me| Diverger { me });
    });
    assert!(result.is_err(), "divergence must panic");
}

#[test]
fn self_messages_are_budgeted_and_counted() {
    struct SelfTalk;
    impl NodeMachine for SelfTalk {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(ctx.me(), 42);
        }

        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
            Step::Done(inbox.drain().map(|(_, m)| m).sum())
        }
    }
    let report = run_protocol(CliqueSpec::new(4).unwrap(), |_| SelfTalk).unwrap();
    assert_eq!(report.metrics.total_messages(), 4);
    assert!(report.outputs.iter().all(|&x| x == 42));
}

/// A panic inside `on_round` on a pooled worker must propagate to the
/// caller — with the original payload — not deadlock the driving thread
/// waiting for a result that will never arrive (regression: the pool's
/// result channel only errors once *every* worker is gone, and the
/// surviving parked workers keep theirs alive).
#[test]
fn worker_panic_propagates_under_pooled_stepping() {
    use cc_sim::ExecMode;

    struct Bomb;
    impl NodeMachine for Bomb {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(ctx.me(), 1);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
            let _ = inbox.drain().count();
            if ctx.me().index() == 0 {
                panic!("node 0 exploded");
            }
            ctx.send(ctx.me(), 1);
            Step::Continue
        }
    }

    // 8 nodes on 4 workers: node 0 panics in round 1 while the other
    // three workers' nodes are still mid-protocol.
    let result = std::panic::catch_unwind(|| {
        let _ = run_protocol(
            CliqueSpec::new(8)
                .unwrap()
                .with_exec(ExecMode::Parallel { threads: 4 }),
            |_| Bomb,
        );
    });
    let payload = result.expect_err("protocol panic must propagate, not deadlock");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        msg.contains("node 0 exploded"),
        "unexpected payload: {msg:?}"
    );
}

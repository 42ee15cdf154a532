//! Execution-mode determinism: the optimized engine (sequential and
//! parallel) must produce byte-identical `RunReport`s — outputs, round
//! metrics, histograms, work meters — to the retained seed-reference
//! engine, and model violations must be reported at the lowest
//! `(src, dst)` pair no matter how stepping is scheduled.

use cc_sim::{
    run_protocol, CliqueSpec, Ctx, ExecMode, Inbox, NodeId, NodeMachine, RunReport, SimError, Step,
};

/// All execution modes a deterministic protocol must agree across.
fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::SeedReference,
        ExecMode::Sequential,
        ExecMode::Auto,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 5 },
        ExecMode::Parallel { threads: 0 },
    ]
}

/// The mode matrix of the error-path determinism suite: for a protocol
/// that violates the model, every mode must return the *identical*
/// [`SimError`] value — same variant, same fields — because violations
/// are resolved at the lowest `(src, dst)` pair independent of stepping.
fn error_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Auto,
        ExecMode::Sequential,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 3 },
        ExecMode::SeedReference,
    ]
}

/// Runs `make` under every error-suite mode and returns the per-mode
/// errors, asserting the run really failed.
fn errors_for<N: NodeMachine + 'static>(
    base: CliqueSpec,
    make: impl Fn(NodeId) -> N + Copy,
) -> Vec<(ExecMode, SimError)> {
    error_modes()
        .into_iter()
        .map(|mode| {
            let err = match run_protocol(base.clone().with_exec(mode), make) {
                Err(err) => err,
                Ok(_) => panic!("expected a model violation under {mode:?}"),
            };
            (mode, err)
        })
        .collect()
}

/// Asserts every mode produced the same error value as the first.
fn assert_errors_identical(errors: &[(ExecMode, SimError)]) {
    let (first_mode, first) = &errors[0];
    for (mode, err) in &errors[1..] {
        assert_eq!(
            first, err,
            "error diverged between {first_mode:?} and {mode:?}"
        );
    }
}

fn reports_for<N: NodeMachine + 'static>(
    base: CliqueSpec,
    make: impl Fn(NodeId) -> N + Copy,
) -> Vec<RunReport<N::Output>> {
    all_modes()
        .into_iter()
        .map(|mode| run_protocol(base.clone().with_exec(mode), make).unwrap())
        .collect()
}

fn assert_all_identical<O: PartialEq + std::fmt::Debug>(reports: &[RunReport<O>]) {
    let first = &reports[0];
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            first.outputs, r.outputs,
            "outputs diverged between mode 0 and mode {i}"
        );
        assert_eq!(
            first.metrics, r.metrics,
            "metrics diverged between mode 0 and mode {i}"
        );
    }
}

/// Heavy fan-out with scrambled send order: node `v` sends `1 + v % 3`
/// messages to every destination, emitted in a stride pattern so the
/// outbox is far from destination-sorted — the shape that exercised the
/// seed engine's quadratic drain and now exercises the bucket pass.
struct HeavyFanOut {
    rounds: u32,
    done: u32,
    checksum: u64,
}

impl NodeMachine for HeavyFanOut {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        send_wave(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        // Fold sender order into the checksum so any delivery reordering
        // changes the output.
        for (src, m) in inbox.drain() {
            self.checksum = self
                .checksum
                .wrapping_mul(31)
                .wrapping_add(src.raw() as u64)
                .wrapping_add(m);
        }
        self.done += 1;
        if self.done >= self.rounds {
            return Step::Done(self.checksum);
        }
        send_wave(ctx);
        Step::Continue
    }
}

fn send_wave(ctx: &mut Ctx<'_, u64>) {
    let n = ctx.n();
    let me = ctx.me().index();
    let copies = 1 + me % 3;
    // Stride through destinations so sends arrive dst-unsorted.
    for c in 0..copies {
        for k in 0..n {
            let dst = (k * 7 + me + c) % n;
            ctx.send(NodeId::new(dst), (me * 1000 + dst + c) as u64);
        }
    }
}

#[test]
fn heavy_fanout_identical_across_modes() {
    let spec = CliqueSpec::new(40)
        .unwrap()
        .with_budget_words(16)
        .with_edge_histogram(true);
    let reports = reports_for(spec, |_| HeavyFanOut {
        rounds: 5,
        done: 0,
        checksum: 7,
    });
    assert_all_identical(&reports);
    // The workload really is heavy: every round busies all n² edges.
    assert_eq!(reports[0].metrics.rounds()[0].busy_edges, 40 * 40);
}

/// A protocol charging per-node work and memory: the per-node meters must
/// agree across modes (they are part of `Metrics` equality, but assert
/// the interesting values explicitly).
struct Worker;

impl NodeMachine for Worker {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me().index() as u64;
        ctx.charge_work(10 * me);
        ctx.note_mem(100 + me);
        ctx.send(ctx.me(), me);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        ctx.charge_work(1);
        Step::Done(inbox.drain().map(|(_, m)| m).sum())
    }
}

#[test]
fn work_meters_identical_across_modes() {
    let reports = reports_for(CliqueSpec::new(9).unwrap(), |_| Worker);
    assert_all_identical(&reports);
    let work = reports[0].metrics.node_work();
    assert_eq!(work.len(), 9);
    assert_eq!(work[8].steps(), 81);
    assert_eq!(work[8].peak_mem_words(), 108);
}

/// Two nodes violate the budget (src 5 before src 2 in send time is
/// irrelevant — ids order the report); within the lower src, the
/// violation on the lower dst wins even though it was queued later.
struct DoubleViolator;

impl NodeMachine for DoubleViolator {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me().index();
        if me == 5 || me == 2 {
            // Over-budget to dst 9 first, then to dst 4: the report must
            // name (2, 4).
            for dst in [9usize, 4] {
                for k in 0..64 {
                    ctx.send(NodeId::new(dst), k);
                }
            }
        }
    }

    fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
        Step::Done(())
    }
}

#[test]
fn budget_violation_reports_lowest_src_dst_in_every_mode() {
    for mode in all_modes() {
        let spec = CliqueSpec::new(12)
            .unwrap()
            .with_budget_words(8)
            .with_exec(mode);
        let err = run_protocol(spec, |_| DoubleViolator).unwrap_err();
        match err {
            SimError::BudgetExceeded { src, dst, .. } => {
                assert_eq!((src.index(), dst.index()), (2, 4), "mode {mode:?}");
            }
            other => panic!("unexpected error {other:?} under {mode:?}"),
        }
    }
}

/// An out-of-range destination orders *after* every valid destination of
/// the same sender (NodeId comparison), so a budget violation on a valid
/// edge is reported first — in every mode.
struct MixedViolator;

impl NodeMachine for MixedViolator {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.me().index() == 3 {
            ctx.send(NodeId::new(ctx.n() + 7), 1);
            for k in 0..64 {
                ctx.send(NodeId::new(6), k);
            }
        }
    }

    fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
        Step::Done(())
    }
}

#[test]
fn out_of_range_orders_after_valid_destinations() {
    for mode in all_modes() {
        let spec = CliqueSpec::new(8)
            .unwrap()
            .with_budget_words(8)
            .with_exec(mode);
        let err = run_protocol(spec, |_| MixedViolator).unwrap_err();
        match err {
            SimError::BudgetExceeded { src, dst, .. } => {
                assert_eq!((src.index(), dst.index()), (3, 6), "mode {mode:?}");
            }
            other => panic!("unexpected error {other:?} under {mode:?}"),
        }
    }
}

/// With no budget violation in the way, the lowest out-of-range
/// destination is reported.
struct WildPair;

impl NodeMachine for WildPair {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.me().index() == 1 {
            ctx.send(NodeId::new(ctx.n() + 9), 1);
            ctx.send(NodeId::new(ctx.n() + 2), 1);
        }
    }

    fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &mut Inbox<u64>) -> Step<()> {
        Step::Done(())
    }
}

#[test]
fn lowest_out_of_range_destination_is_reported() {
    for mode in all_modes() {
        let spec = CliqueSpec::new(5).unwrap().with_exec(mode);
        let err = run_protocol(spec, |_| WildPair).unwrap_err();
        match err {
            SimError::DestinationOutOfRange { src, dst, .. } => {
                assert_eq!((src.index(), dst), (1, 7), "mode {mode:?}");
            }
            other => panic!("unexpected error {other:?} under {mode:?}"),
        }
    }
}

/// Every node finishes in the same round while node 0's final handler
/// still queues messages (to dst 5 first, then dst 2): the all-finished
/// check must report the lowest `(src, dst)` pair, not the first message
/// in send order.
struct PartingShot;

impl NodeMachine for PartingShot {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        if ctx.me().index() == 0 {
            ctx.send(NodeId::new(5), 7);
            ctx.send(NodeId::new(2), 7);
        }
        Step::Done(())
    }
}

#[test]
fn sends_in_the_final_round_report_lowest_src_dst() {
    // The seed engine used to report this corner in send order (the
    // first-queued destination); both engines now honor the documented
    // lowest-(src, dst) guarantee, so the full mode matrix — including
    // SeedReference — must agree on the exact error value.
    let errors = errors_for(CliqueSpec::new(6).unwrap(), |_| PartingShot);
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::MessageToFinishedNode { round, src, dst } => {
            assert_eq!((*round, src.index(), dst.index()), (2, 0, 2));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Inbox ordering under bundled same-destination sends: ascending sender,
/// per-sender send order — in every mode.
struct Bundler;

impl NodeMachine for Bundler {
    type Msg = u64;
    type Output = Vec<(u32, u64)>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me().index() as u64;
        // Three messages to node 0, interleaved with other traffic.
        ctx.send(NodeId::new(0), me * 10);
        ctx.send(ctx.me(), 999);
        ctx.send(NodeId::new(0), me * 10 + 1);
        ctx.send(NodeId::new(0), me * 10 + 2);
    }

    fn on_round(
        &mut self,
        _ctx: &mut Ctx<'_, u64>,
        inbox: &mut Inbox<u64>,
    ) -> Step<Vec<(u32, u64)>> {
        Step::Done(inbox.drain().map(|(s, m)| (s.raw(), m)).collect())
    }
}

#[test]
fn bundled_sends_preserve_order_in_every_mode() {
    let reports = reports_for(CliqueSpec::new(4).unwrap(), |_| Bundler);
    assert_all_identical(&reports);
    let at_zero = &reports[0].outputs[0];
    let expected: Vec<(u32, u64)> = vec![
        (0, 0),
        (0, 999),
        (0, 1),
        (0, 2),
        (1, 10),
        (1, 11),
        (1, 12),
        (2, 20),
        (2, 21),
        (2, 22),
        (3, 30),
        (3, 31),
        (3, 32),
    ];
    assert_eq!(at_zero, &expected);
}

/// Staggered completion: nodes finish in different rounds, so parallel
/// chunks hold a mix of running and finished nodes for most of the run.
struct Staggered;

impl NodeMachine for Staggered {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 0);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        let _ = inbox.drain().count();
        if ctx.round() > ctx.me().index() as u64 {
            return Step::Done(ctx.round());
        }
        ctx.send(ctx.me(), ctx.round());
        Step::Continue
    }
}

#[test]
fn staggered_completion_identical_across_modes() {
    let reports = reports_for(CliqueSpec::new(23).unwrap(), |_| Staggered);
    assert_all_identical(&reports);
    assert_eq!(reports[0].outputs[22], 23);
}

// ---------------------------------------------------------------------------
// Error-path determinism suite: every mode must return the identical
// `SimError` *value* — not just the same variant — for each violation
// class, including the cases where only the lowest-(src, dst) precedence
// rule disambiguates between several simultaneous violations.
// ---------------------------------------------------------------------------

#[test]
fn budget_exceeded_error_identical_across_modes() {
    let errors = errors_for(CliqueSpec::new(12).unwrap().with_budget_words(8), |_| {
        DoubleViolator
    });
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::BudgetExceeded {
            round, src, dst, ..
        } => {
            assert_eq!((*round, src.index(), dst.index()), (1, 2, 4));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn destination_out_of_range_error_identical_across_modes() {
    let errors = errors_for(CliqueSpec::new(5).unwrap(), |_| WildPair);
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::DestinationOutOfRange { src, dst, n } => {
            assert_eq!((src.index(), *dst, *n), (1, 7, 5));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Several nodes violate in the same final round, each on several
/// destinations queued in descending order: node 4 queues {5, 1} and
/// node 2 queues {9, 3}. Send order would report (4, 5) first and
/// per-sender order would report (2, 9); only the lowest-(src, dst) rule
/// yields (2, 3) — which every mode must agree on exactly.
struct FinalRoundChaos;

impl NodeMachine for FinalRoundChaos {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        match ctx.me().index() {
            4 => {
                ctx.send(NodeId::new(5), 7);
                ctx.send(NodeId::new(1), 7);
            }
            2 => {
                ctx.send(NodeId::new(9), 7);
                ctx.send(NodeId::new(3), 7);
            }
            _ => {}
        }
        Step::Done(())
    }
}

#[test]
fn multi_violation_resolved_by_lowest_src_dst_in_every_mode() {
    let errors = errors_for(CliqueSpec::new(10).unwrap(), |_| FinalRoundChaos);
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::MessageToFinishedNode { round, src, dst } => {
            assert_eq!((*round, src.index(), dst.index()), (2, 2, 3));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Every node finishes in round 1 while node 1's final handler queues
/// messages *only* to out-of-range destinations (n+3 first, then n+1).
/// There is no finished in-range recipient to blame, so the violation
/// must be classified as `DestinationOutOfRange` — on the lowest invalid
/// destination — in every mode (regression: both engines used to emit
/// `MessageToFinishedNode` with a nonsensical `dst ≥ n` here).
struct PartingWildShot;

impl NodeMachine for PartingWildShot {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        if ctx.me().index() == 1 {
            ctx.send(NodeId::new(ctx.n() + 3), 7);
            ctx.send(NodeId::new(ctx.n() + 1), 7);
        }
        Step::Done(())
    }
}

#[test]
fn final_round_out_of_range_classified_in_every_mode() {
    let errors = errors_for(CliqueSpec::new(6).unwrap(), |_| PartingWildShot);
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::DestinationOutOfRange { src, dst, n } => {
            assert_eq!((src.index(), *dst, *n), (1, 7, 6));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Mixed final round: node 2 queues only out-of-range destinations while
/// node 4 queues an in-range one. Senders are scanned in ascending order
/// — exactly like the delivery pass — so node 2's addressing bug is
/// reported even though node 4's violation has the "stronger" variant.
struct MixedFinalRound;

impl NodeMachine for MixedFinalRound {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        match ctx.me().index() {
            2 => ctx.send(NodeId::new(ctx.n() + 2), 7),
            4 => ctx.send(NodeId::new(0), 7),
            _ => {}
        }
        Step::Done(())
    }
}

#[test]
fn final_round_scans_senders_ascending_in_every_mode() {
    let errors = errors_for(CliqueSpec::new(8).unwrap(), |_| MixedFinalRound);
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::DestinationOutOfRange { src, dst, n } => {
            assert_eq!((src.index(), *dst, *n), (2, 10, 8));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Nodes 2.. finish in round 1; nodes 0 and 1 keep running but go silent,
/// so the engine must declare a stall with identical round/finished/total
/// accounting in every mode.
struct SilentMinority;

impl NodeMachine for SilentMinority {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        if ctx.me().index() >= 2 {
            return Step::Done(());
        }
        Step::Continue
    }
}

#[test]
fn stalled_error_identical_across_modes() {
    let n = 9;
    let errors = errors_for(
        CliqueSpec::new(n).unwrap().with_max_silent_rounds(3),
        |_| SilentMinority,
    );
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::Stalled {
            round,
            finished,
            total,
        } => {
            // Round 1 delivers and completes n-2 nodes; rounds 2-4 are
            // silent (tolerated); round 5 exceeds the limit.
            assert_eq!((*round, *finished, *total), (5, n - 2, n));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// An in-flight violation (not the final-round corner): node 1 keeps
/// sending to node 0 after node 0 finished, detected during delivery.
struct LateToFinished;

impl NodeMachine for LateToFinished {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.me(), 1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<()> {
        let _ = inbox.drain().count();
        if ctx.me().index() == 0 {
            return Step::Done(());
        }
        if ctx.me().index() == 1 {
            ctx.send(NodeId::new(0), 9);
        }
        ctx.send(ctx.me(), 1);
        Step::Continue
    }
}

#[test]
fn message_to_finished_node_error_identical_across_modes() {
    let errors = errors_for(CliqueSpec::new(4).unwrap(), |_| LateToFinished);
    assert_errors_identical(&errors);
    match &errors[0].1 {
        SimError::MessageToFinishedNode { round, src, dst } => {
            assert_eq!((*round, src.index(), dst.index()), (2, 1, 0));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

//! One-shot runs release their threads: `run_protocol` steps on a fresh
//! `CliqueSession` and drops it, and dropping a session joins its
//! workers — after a completed run and after a run whose node panicked.
//!
//! Linux-only (worker threads are found by name under
//! `/proc/self/task`), and a test binary of its own with a single test,
//! so no concurrently running test can spawn session workers of its own.
#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cc_sim::{run_protocol, CliqueSpec, Ctx, ExecMode, Inbox, NodeMachine, Step};

/// Names of this process's live session workers.
fn session_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("cc-session-"))
        .collect()
}

/// Asserts every session worker is gone. A joined thread can linger in
/// `/proc/self/task` for a moment after its join returns, so this polls
/// briefly; a leaked worker stays parked and fails the assertion.
fn assert_no_session_threads(after: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = session_threads();
        if live.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "session workers still alive after {after}: {live:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Node 0 counts the live session workers from inside round 1 (so the
/// check below is not vacuous); with `bomb`, node 0 panics instead.
struct Census {
    bomb: bool,
}

impl NodeMachine for Census {
    type Msg = u64;
    type Output = usize;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(ctx.me().index() as u64);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<usize> {
        let _ = inbox.drain().count();
        if ctx.me().index() != 0 {
            return Step::Done(0);
        }
        if self.bomb {
            panic!("node 0 exploded");
        }
        Step::Done(session_threads().len())
    }
}

#[test]
fn one_shot_runs_release_their_threads() {
    let spec = CliqueSpec::new(16)
        .unwrap()
        .with_exec(ExecMode::Parallel { threads: 3 });
    assert_no_session_threads("start-up");

    let report = run_protocol(spec.clone(), |_| Census { bomb: false }).unwrap();
    assert_eq!(report.outputs[0], 3, "the run stepped on 3 session workers");
    assert_no_session_threads("a completed run");

    let panicked = catch_unwind(AssertUnwindSafe(|| {
        run_protocol(spec, |_| Census { bomb: true })
    }));
    assert!(panicked.is_err(), "the node's panic must propagate");
    assert_no_session_threads("a panicked run");
}

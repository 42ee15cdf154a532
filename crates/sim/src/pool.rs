//! Persistent stepping-worker pools: [`WorkerPool`], spawned once per
//! [`Simulator`](crate::Simulator) run and parked between rounds, and
//! [`SessionPool`], spawned once per
//! [`CliqueSession`](crate::CliqueSession) and parked between *runs* —
//! so a batch of protocol runs never respawns a thread.
//!
//! The engine's rounds are embarrassingly parallel across nodes, and the
//! pool keeps the per-round cost of using that parallelism to a
//! *hand-off*: workers are spawned once inside the run's thread scope,
//! block on their job channel between rounds (a futex park — no
//! spinning), and each round receive *ownership* of their
//! [`NodeChunk`] — a handful of `Vec` headers — step it, and send it
//! back.
//!
//! Moving ownership through channels, rather than lending `&mut` chunk
//! slices to long-lived workers, is what keeps the pool within the
//! crate's `#![forbid(unsafe_code)]`: a scoped worker cannot safely hold
//! a fresh per-round mutable borrow, but it can own the chunk outright
//! for the duration of the step. The driving thread gets every chunk
//! back before delivery, so the sequential delivery pass — where all
//! determinism-relevant ordering and violation detection happens — is
//! untouched.
//!
//! Determinism: chunk boundaries are fixed for the whole run, results are
//! written back by chunk index (arrival order is irrelevant), and the
//! per-round completion count is a sum over chunks, so the pool is
//! observably identical to sequential stepping.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{Scope, ScopedJoinHandle};

use crate::common::CommonCache;
use crate::engine::{NodeChunk, NodeMachine};

/// One round's hand-off to a worker: the chunk travels by value.
struct Job<N: NodeMachine> {
    round: u64,
    index: usize,
    chunk: NodeChunk<N>,
}

/// What a worker sends back for one job.
///
/// Panics inside `on_round` (a protocol bug, or a [`CommonCache`]
/// divergence assertion) are caught on the worker and reported as an
/// explicit outcome rather than killing the worker thread: the driver
/// would otherwise block forever on its result channel, since the
/// *other* parked workers keep their senders alive and a receiver only
/// errors once every sender is gone. The driver re-raises the payload,
/// so the caller observes the same panic it would have seen under
/// sequential stepping.
enum StepOutcome<N: NodeMachine> {
    Stepped {
        index: usize,
        chunk: NodeChunk<N>,
        completions: usize,
    },
    Panicked(Box<dyn Any + Send>),
}

/// The pool: one parked worker per chunk, alive for the whole run.
///
/// Created inside the engine's `std::thread::scope` so workers may borrow
/// the run's [`CommonCache`]; dropping the pool (or the scope unwinding)
/// closes the job channels, which wakes every worker and lets the scope
/// join them.
pub(crate) struct WorkerPool<'scope, N: NodeMachine> {
    job_txs: Vec<Sender<Job<N>>>,
    results: Receiver<StepOutcome<N>>,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope, N: NodeMachine> WorkerPool<'scope, N> {
    /// Spawns `workers` stepping workers on `scope`. Each worker loops:
    /// park on the job channel, step the received chunk, send it back.
    pub(crate) fn new<'env>(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        n: usize,
        common: &'env CommonCache,
    ) -> Self
    where
        N: 'env,
    {
        let (result_tx, results) = channel::<StepOutcome<N>>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = channel::<Job<N>>();
            let result_tx = result_tx.clone();
            handles.push(scope.spawn(move || {
                while let Ok(Job {
                    round,
                    index,
                    mut chunk,
                }) = job_rx.recv()
                {
                    // AssertUnwindSafe: on a caught panic the chunk is
                    // dropped and the driver aborts the whole run, so no
                    // code observes the possibly-inconsistent state.
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let completions = chunk.step(round, n, common);
                        (chunk, completions)
                    }));
                    let (outcome, poisoned) = match outcome {
                        Ok((chunk, completions)) => (
                            StepOutcome::Stepped {
                                index,
                                chunk,
                                completions,
                            },
                            false,
                        ),
                        Err(payload) => (StepOutcome::Panicked(payload), true),
                    };
                    // A send error means the driving thread is gone (it
                    // panicked and is unwinding the scope); exit quietly.
                    if result_tx.send(outcome).is_err() || poisoned {
                        break;
                    }
                }
            }));
            job_txs.push(job_tx);
        }
        WorkerPool {
            job_txs,
            results,
            handles,
        }
    }

    /// Steps one round: hands each chunk to its worker, collects every
    /// chunk back (written in place by index), and returns the total
    /// number of nodes that finished this round.
    ///
    /// On return the caller owns all chunks again, so the subsequent
    /// delivery pass runs with no synchronization at all. If a worker's
    /// `on_round` panicked, the panic is re-raised here on the driving
    /// thread after the pool has been torn down.
    pub(crate) fn step_round(&mut self, round: u64, chunks: &mut [NodeChunk<N>]) -> usize {
        debug_assert_eq!(chunks.len(), self.job_txs.len());
        for (index, (slot, job_tx)) in chunks.iter_mut().zip(&self.job_txs).enumerate() {
            let chunk = std::mem::replace(slot, NodeChunk::placeholder());
            if job_tx
                .send(Job {
                    round,
                    index,
                    chunk,
                })
                .is_err()
            {
                self.abort(None);
            }
        }
        let mut completions = 0usize;
        for _ in 0..chunks.len() {
            match self.results.recv() {
                Ok(StepOutcome::Stepped {
                    index,
                    chunk,
                    completions: c,
                }) => {
                    chunks[index] = chunk;
                    completions += c;
                }
                Ok(StepOutcome::Panicked(payload)) => self.abort(Some(payload)),
                Err(_) => self.abort(None),
            }
        }
        completions
    }

    /// Tears the pool down after a worker reported a panic (or vanished):
    /// wake every parked worker so it exits, join them all, and re-raise
    /// the panic payload on the driving thread. Workers never block on
    /// the (unbounded) result channel, so joining cannot deadlock.
    fn abort(&mut self, mut payload: Option<Box<dyn Any + Send>>) -> ! {
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            if let Err(p) = handle.join() {
                // Uncaught worker panic — can't happen while `step` runs
                // under `catch_unwind`, but keep the payload if it does.
                payload.get_or_insert(p);
            }
        }
        match payload {
            Some(p) => std::panic::resume_unwind(p),
            None => unreachable!("a pool worker disconnected without panicking"),
        }
    }
}

/// A type-erased stepping job: owns its chunk, steps it, and reports
/// through a channel baked into the closure. Boxing is what lets one pool
/// of OS threads serve *every* protocol type a session runs — the worker
/// loop never learns the machine type.
type SessionJob = Box<dyn FnOnce() + Send + 'static>;

/// The session-lifetime worker pool: threads are spawned on first
/// parallel use of a [`CliqueSession`](crate::CliqueSession), parked on
/// their job channel between rounds *and between runs*, and joined when
/// the session drops.
///
/// Unlike [`WorkerPool`] — whose scoped workers are typed by the protocol
/// and may borrow the run's [`CommonCache`] — session workers are
/// `'static` and execute boxed jobs, so consecutive runs of *different*
/// protocols reuse the same threads. The cost is one small closure
/// allocation per chunk per round and an `Arc` on the cache; the saving
/// is `workers × thread spawn/join` per run, the dominant setup cost of
/// constant-round protocols on small cliques.
///
/// Determinism is inherited from the same argument as [`WorkerPool`]:
/// chunk boundaries are fixed, results are written back by chunk index,
/// and all delivery/validation stays on the driving thread.
#[derive(Default)]
pub(crate) struct SessionPool {
    job_txs: Vec<Sender<SessionJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SessionPool {
    /// Number of live workers.
    pub(crate) fn workers(&self) -> usize {
        self.job_txs.len()
    }

    /// Grows the pool to at least `count` parked workers. Never shrinks:
    /// a session that once ran a wide clique keeps its threads for the
    /// next wide run, which is the point of the session.
    pub(crate) fn ensure_workers(&mut self, count: usize) {
        while self.job_txs.len() < count {
            let (job_tx, job_rx) = channel::<SessionJob>();
            let handle = std::thread::Builder::new()
                .name(format!("cc-session-{}", self.job_txs.len()))
                .spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        job();
                    }
                })
                .expect("spawn session stepping worker");
            self.handles.push(handle);
            self.job_txs.push(job_tx);
        }
    }

    /// Steps one round of `chunks` on the session workers; the semantics
    /// mirror [`WorkerPool::step_round`] exactly (ownership hand-off,
    /// write-back by index, caught panics re-raised on the driving
    /// thread), so a reused session steps bit-identically to a fresh
    /// simulator.
    ///
    /// A worker that catches a panic stays parked and reusable — only the
    /// panicking *run* is lost, not the session.
    pub(crate) fn step_round<N>(
        &mut self,
        round: u64,
        n: usize,
        common: &std::sync::Arc<CommonCache>,
        chunks: &mut [NodeChunk<N>],
    ) -> usize
    where
        N: NodeMachine + 'static,
        N::Msg: 'static,
        N::Output: 'static,
    {
        self.ensure_workers(chunks.len());
        let (result_tx, results) = channel::<StepOutcome<N>>();
        for (index, (slot, job_tx)) in chunks.iter_mut().zip(&self.job_txs).enumerate() {
            let mut chunk = std::mem::replace(slot, NodeChunk::placeholder());
            let common = std::sync::Arc::clone(common);
            let result_tx = result_tx.clone();
            let job: SessionJob = Box::new(move || {
                // AssertUnwindSafe: on a caught panic the chunk is dropped
                // and the driver aborts the run, so no code observes the
                // possibly-inconsistent state (same argument as
                // `WorkerPool`).
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let completions = chunk.step(round, n, &common);
                    (chunk, completions)
                }));
                let outcome = match outcome {
                    Ok((chunk, completions)) => StepOutcome::Stepped {
                        index,
                        chunk,
                        completions,
                    },
                    Err(payload) => StepOutcome::Panicked(payload),
                };
                // A send error means the driving thread already gave up on
                // this round (another chunk panicked); park for the next job.
                let _ = result_tx.send(outcome);
            });
            job_tx
                .send(job)
                .expect("session stepping worker is parked on its channel");
        }
        drop(result_tx);
        // Collect *every* outcome before re-raising a panic: leaving a
        // job in flight would let it outlive the aborted run and write
        // into the shared cache after the session has reset it for the
        // next run (WorkerPool::abort prevents the same race by joining
        // its workers; session workers survive, so the barrier is the
        // drain). Every job reports — panics are caught on the worker —
        // so this loop always terminates.
        let mut completions = 0usize;
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        for _ in 0..chunks.len() {
            let outcome = results
                .recv()
                .expect("every dispatched job reports an outcome");
            match outcome {
                StepOutcome::Stepped {
                    index,
                    chunk,
                    completions: c,
                } => {
                    chunks[index] = chunk;
                    completions += c;
                }
                StepOutcome::Panicked(payload) => {
                    // First panic wins (lowest chunk finishes first is not
                    // guaranteed, but the payload re-raised is from the
                    // run being aborted either way).
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        completions
    }
}

impl SessionPool {
    /// Runs a batch of arbitrary compute jobs on the parked workers, one
    /// job per worker, and returns their results **in job order**
    /// (arrival order is irrelevant — results are written back by index,
    /// the same determinism discipline as `step_round`). Panics inside a
    /// job are caught on the worker, every outstanding job is drained
    /// (so nothing outlives an aborted batch), and the first payload is
    /// re-raised on the driving thread.
    ///
    /// This is the generic surface behind the radix sort's
    /// chunked-parallel driver (`crate::radix`): chunk ownership moves
    /// to the worker through the job channel and back through the result
    /// channel, keeping the crate within `forbid(unsafe_code)`.
    pub(crate) fn run_jobs<R: Send + 'static>(
        &mut self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Vec<R> {
        let count = jobs.len();
        self.ensure_workers(count);
        let (result_tx, results) = channel::<(usize, std::thread::Result<R>)>();
        for (index, (job, job_tx)) in jobs.into_iter().zip(&self.job_txs).enumerate() {
            let result_tx = result_tx.clone();
            let wrapped: SessionJob = Box::new(move || {
                // AssertUnwindSafe: a panicking job's partial state is
                // dropped with the closure; the driver re-raises, so no
                // code observes it (same argument as `step_round`).
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(job));
                let _ = result_tx.send((index, outcome));
            });
            job_tx
                .send(wrapped)
                .expect("session worker is parked on its channel");
        }
        drop(result_tx);
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        for _ in 0..count {
            let (index, outcome) = results
                .recv()
                .expect("every dispatched job reports an outcome");
            match outcome {
                Ok(result) => slots[index] = Some(result),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("non-panicking job filled its slot"))
            .collect()
    }
}

impl Drop for SessionPool {
    /// Closes every job channel — waking the parked workers so they exit —
    /// and joins them. Workers only ever block on `recv`, so the join
    /// cannot deadlock; a worker that somehow panicked outside a job is
    /// ignored (the session is being torn down anyway).
    fn drop(&mut self) {
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    /// The pool and everything traveling on its job channels must be
    /// `Send`: a [`CliqueSession`](crate::CliqueSession) owning this pool
    /// is moved whole into server shard threads, and each `SessionJob`
    /// crosses from the driving thread to a parked worker. Compile-time
    /// only — if a non-`Send` member ever sneaks into the pool or the job
    /// closures, this stops building rather than failing at runtime.
    #[test]
    fn session_pool_and_job_channels_are_send() {
        assert_send::<SessionPool>();
        assert_send::<SessionJob>();
        assert_send::<Sender<SessionJob>>();
        assert_send::<Receiver<SessionJob>>();
    }
}

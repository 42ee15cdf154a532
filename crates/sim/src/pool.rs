//! The session worker pool: [`SessionPool`], spawned once per
//! [`CliqueSession`](crate::CliqueSession) and parked between rounds
//! *and* between runs — so a batch of protocol runs never respawns a
//! thread. It is the only place in the crate that hands work to a thread.
//!
//! The engine's rounds are embarrassingly parallel across nodes, and the
//! pool keeps the per-round cost of using that parallelism to a
//! *hand-off*: workers block on their job channel between rounds (a
//! futex park — no spinning), and each round receive *ownership* of their
//! [`NodeChunk`] — a handful of `Vec` headers — step it, and send it
//! back.
//!
//! Moving ownership through channels, rather than lending `&mut` chunk
//! slices to long-lived workers, is what keeps the pool within the
//! crate's `#![forbid(unsafe_code)]`: a long-lived worker cannot safely
//! hold a fresh per-round mutable borrow, but it can own the chunk
//! outright for the duration of the step. The driving thread gets every
//! chunk back before delivery, so the sequential delivery pass — where
//! all determinism-relevant ordering and violation detection happens — is
//! untouched.
//!
//! Determinism: chunk boundaries are fixed for the whole run, results are
//! written back by chunk index (arrival order is irrelevant), and the
//! per-round completion count is a sum over chunks, so the pool is
//! observably identical to sequential stepping.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Sender};

use crate::common::CommonCache;
use crate::engine::{NodeChunk, NodeMachine};

/// What a worker sends back for one job.
///
/// Panics inside `on_round` (a protocol bug, or a [`CommonCache`]
/// divergence assertion) are caught on the worker and reported as an
/// explicit outcome rather than killing the worker thread, which the
/// session keeps for its later runs. The driver re-raises the payload,
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
/// Session workers are `'static` and execute boxed jobs, so consecutive
/// runs of *different* protocols reuse the same threads. The cost is one
/// small closure allocation per chunk per round and an `Arc` on the
/// cache; the saving is `workers × thread spawn/join` per run, the
/// dominant setup cost of constant-round protocols on small cliques.
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

    /// Steps one round: hands each chunk to its worker, collects every
    /// chunk back (written in place by index), and returns the total
    /// number of nodes that finished this round. On return the caller
    /// owns all chunks again, so the delivery pass that follows runs with
    /// no synchronization at all.
    ///
    /// A panic inside `on_round` is caught on the worker and re-raised
    /// here on the driving thread. The worker stays parked and reusable —
    /// only the panicking *run* is lost, not the session.
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
                // possibly-inconsistent state.
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
        // next run. Workers survive a panic, so the barrier is this
        // drain. Every job reports — panics are caught on the worker — so
        // this loop always terminates.
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
    use std::sync::mpsc::Receiver;

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

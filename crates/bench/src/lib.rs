//! # cc-bench — the experiment harness
//!
//! Regenerates every quantitative claim of Lenzen (PODC 2013) as a table,
//! one function per experiment in [`experiments`] (E1–E16), each printing
//! the paper's claim in its header next to the measured values. Run single
//! experiments with `cargo run -p cc-bench --release --bin tables -- e1`
//! (or `all`).
//!
//! Wall-clock benchmarks live under `benches/` on the dependency-free
//! [`harness`]; the flagship is `benches/engine.rs`, which measures the
//! optimized simulator (sequential and parallel) against the retained
//! seed-reference engine and writes `BENCH_engine.json` at the workspace
//! root:
//!
//! ```sh
//! cargo bench -p cc-bench --bench engine            # full run
//! cargo bench -p cc-bench --bench engine -- --quick # CI smoke run
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;

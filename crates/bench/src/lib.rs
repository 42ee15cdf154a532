//! # cc-bench — the experiment tables
//!
//! Regenerates every quantitative claim of Lenzen (PODC 2013) as a table,
//! one function per experiment in [`experiments`] (E1–E16), each printing
//! the paper's claim in its header next to the measured values. Run single
//! experiments with `cargo run -p cc-bench --release --bin tables -- e1`
//! (or `all`). The tables report rounds, bits, colours and work, never
//! wall-clock time.
//!
//! Wall-clock performance is measured by `ccbench` (`ccbench/` at the
//! repository root), a package of its own outside this workspace.

#![forbid(unsafe_code)]

pub mod experiments;

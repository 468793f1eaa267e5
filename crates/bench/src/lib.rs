//! # dflow-bench — experiment harnesses
//!
//! The paper's figures are [`paper::FIGURES`]: `dflow-paper` writes them
//! to `paper/*.txt` and `tests/paper.rs` checks them on every test run.
//! The binaries in `src/bin/` are the runs that are not a committed
//! table: the real-server sweeps (`fig9b` graph (e), `shard_scaling`,
//! `delta_speedup`), the crash smoke `durable_crash`, and `srclint`.
//! Shared plumbing (tables, CSV and JSON emission, the sweeps' command
//! line) is [`harness`].

#![warn(missing_docs)]

pub mod harness;
pub mod paper;

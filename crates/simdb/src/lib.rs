//! # simdb — a simulated database server
//!
//! Replaces the CSIM-18-based database simulation of Hull et al. (ICDE
//! 2000) §5: an \[ACL87\]-style physical model with a CPU pool, a disk
//! array, and a probabilistic buffer pool. Queries cost an integer
//! number of *units of processing*; each unit consumes one CPU slice
//! and accesses `unit_IO_pages` pages, missing the buffer with
//! probability `1 − %IO_hit` at `IO_delay` per miss.
//!
//! The defaults of [`DbConfig`] reproduce the simulation parameters of
//! the paper's Table 1. [`measure_db_function`] regenerates the
//! empirical `Db` curve of Figure 9(a): response time per unit of
//! processing as a function of the global multiprogramming level.
//!
//! ```
//! use simdb::{measure_point, DbConfig};
//!
//! let cfg = DbConfig::default();
//! let quiet = measure_point(cfg, 1, 42);
//! let busy = measure_point(cfg, 24, 42);
//! assert!(busy.unit_time_ms > quiet.unit_time_ms);
//! ```

#![warn(missing_docs)]

mod config;
mod db;
mod probe;

pub use config::{DbConfig, ServiceDist};
pub use db::{DbEvent, QueryCompletion, QueryJob, SimDb};
pub use probe::{measure_db_function, measure_db_function_open, measure_point, DbPoint};

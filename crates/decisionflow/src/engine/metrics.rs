//! Per-instance execution metrics and the server's statistics records.
//!
//! The paper's two primary measures (§5):
//!
//! * **Work** — total units of processing performed for the instance.
//!   Work is committed at *launch* time: queries are not cancelled once
//!   sent to the database, so speculative or late-discovered-unneeded
//!   executions still count.
//! * **TimeInUnits** — response time in abstract units of processing
//!   (infinite-resource setting). The `TimeInSeconds` variant is
//!   measured by the finite-resource driver in `dflowperf`.
//!
//! Beyond the per-instance counters, this module hosts the plain
//! records [`EngineServer::stats`] returns: one [`ShardStats`] per
//! shard, aggregated into a [`ServerStats`]. The live counters behind
//! them are the shard's [`ShardTelemetry`] registry handles — the same
//! atomics `Telemetry::snapshot` reads; their snapshot-coherence
//! contract is documented there, once.
//!
//! [`EngineServer::stats`]: crate::server::EngineServer::stats
//! [`ShardTelemetry`]: crate::telemetry::ShardTelemetry

use serde::{Deserialize, Serialize};

use crate::task::Cost;

/// Counters accumulated while executing one decision-flow instance.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceMetrics {
    /// Units of processing committed (sum of launched task costs).
    pub work: Cost,
    /// Number of tasks launched.
    pub launched: u32,
    /// Tasks that completed and stabilized to VALUE.
    pub useful_completions: u32,
    /// Speculative completions whose condition later failed — the
    /// value was discarded (wasted work, in units).
    pub wasted_completions: u32,
    /// Units of processing spent on tasks that ended up discarded.
    pub wasted_work: Cost,
    /// Attributes whose condition was decided *before* all referenced
    /// attributes stabilized (eager/short-circuit decisions — only
    /// nonzero under the `P` option).
    pub eager_decisions: u32,
    /// Attributes detected unneeded by backward propagation.
    pub unneeded_detected: u32,
    /// Attributes that stabilized DISABLED.
    pub disabled: u32,
    /// Propagation algorithm steps (edge visits + condition
    /// re-evaluation node visits); the linearity bench tracks this.
    pub propagation_steps: u64,
}

impl InstanceMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of committed work that was discarded (0 when no work).
    pub fn waste_ratio(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.wasted_work as f64 / self.work as f64
        }
    }

    /// Merge counters from another instance (for aggregate reporting).
    pub fn accumulate(&mut self, other: &InstanceMetrics) {
        self.work += other.work;
        self.launched += other.launched;
        self.useful_completions += other.useful_completions;
        self.wasted_completions += other.wasted_completions;
        self.wasted_work += other.wasted_work;
        self.eager_decisions += other.eager_decisions;
        self.unneeded_detected += other.unneeded_detected;
        self.disabled += other.disabled;
        self.propagation_steps += other.propagation_steps;
    }
}

/// Point-in-time statistics for one shard of the engine server.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (`0..shard_count`).
    pub shard: usize,
    /// Worker threads owned by this shard.
    pub workers: usize,
    /// Task executions waiting in the shard's job queue.
    pub queued_jobs: usize,
    /// Instances routed to this shard and not yet completed.
    pub in_flight: usize,
    /// Total instances ever routed to this shard.
    pub submitted: u64,
    /// Total instances completed on this shard.
    pub completed: u64,
    /// Instances that died without delivering a result.
    pub abandoned: u64,
    /// Completed instances that stabilized after their deadline.
    pub deadline_exceeded: u64,
}

impl ShardStats {
    /// The exact lifecycle identity `submitted = completed + abandoned
    /// + in_flight`.
    ///
    /// This is a *quiescent-state* check: it holds whenever no
    /// submission or completion is mid-update on this shard (e.g.
    /// after every submitted ticket has been waited on). Under racing
    /// traffic only the inequalities `completed ≤ submitted` and
    /// `completed + abandoned ≤ submitted` are guaranteed — see
    /// [`ShardTelemetry`](crate::telemetry::ShardTelemetry#snapshot-coherence).
    pub fn accounts_exactly(&self) -> bool {
        self.submitted == self.completed + self.abandoned + self.in_flight as u64
    }
}

/// Aggregated point-in-time statistics for a sharded engine server:
/// one [`ShardStats`] per shard plus whole-server totals.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ServerStats {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total worker threads across all shards.
    pub fn workers(&self) -> usize {
        self.shards.iter().map(|s| s.workers).sum()
    }

    /// Total queued task executions across all shards.
    pub fn queued_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.queued_jobs).sum()
    }

    /// Total in-flight instances across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.in_flight).sum()
    }

    /// Total instances ever submitted.
    pub fn submitted(&self) -> u64 {
        self.shards.iter().map(|s| s.submitted).sum()
    }

    /// Total instances completed.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Total instances that died without delivering a result.
    pub fn abandoned(&self) -> u64 {
        self.shards.iter().map(|s| s.abandoned).sum()
    }

    /// Total completed instances that stabilized after their deadline.
    pub fn deadline_exceeded(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_exceeded).sum()
    }

    /// `true` when every shard satisfies the exact lifecycle identity
    /// `submitted = completed + abandoned + in_flight` — see
    /// [`ShardStats::accounts_exactly`] for when this is guaranteed
    /// (quiescence) versus merely likely (racing traffic).
    pub fn accounts_exactly(&self) -> bool {
        self.shards.iter().all(|s| s.accounts_exactly())
    }

    /// Deepest per-shard job queue (0 for an empty server).
    pub fn max_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queued_jobs).max().unwrap_or(0)
    }

    /// Shards that have received at least one instance.
    pub fn shards_used(&self) -> usize {
        self.shards.iter().filter(|s| s.submitted > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waste_ratio_handles_zero() {
        assert_eq!(InstanceMetrics::new().waste_ratio(), 0.0);
        let m = InstanceMetrics {
            work: 10,
            wasted_work: 4,
            ..Default::default()
        };
        assert!((m.waste_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = InstanceMetrics {
            work: 5,
            launched: 2,
            useful_completions: 2,
            ..Default::default()
        };
        let b = InstanceMetrics {
            work: 7,
            launched: 3,
            wasted_completions: 1,
            wasted_work: 2,
            eager_decisions: 4,
            unneeded_detected: 1,
            disabled: 2,
            propagation_steps: 100,
            useful_completions: 2,
        };
        a.accumulate(&b);
        assert_eq!(a.work, 12);
        assert_eq!(a.launched, 5);
        assert_eq!(a.useful_completions, 4);
        assert_eq!(a.wasted_completions, 1);
        assert_eq!(a.wasted_work, 2);
        assert_eq!(a.eager_decisions, 4);
        assert_eq!(a.unneeded_detected, 1);
        assert_eq!(a.disabled, 2);
        assert_eq!(a.propagation_steps, 100);
    }

    #[test]
    fn empty_server_stats() {
        let stats = ServerStats::default();
        assert_eq!(stats.shard_count(), 0);
        assert_eq!(stats.max_queue_depth(), 0);
        assert_eq!(stats.in_flight(), 0);
        assert_eq!(stats.shards_used(), 0);
    }
}

//! The unified load-generation surface: one [`Workload`] in, one
//! [`LoadReport`] out, whatever executes it.
//!
//! The paper's experimental grid is *workload shapes × execution
//! settings*, and the API says exactly that:
//!
//! * [`Workload`] — a builder carrying the flows, the [`Arrival`]
//!   process (closed-loop waves or an open Poisson stream), the
//!   [`Strategy`], instance/warmup counts, the RNG seed, an optional
//!   per-instance completion [`deadline`](Workload::deadline), and
//!   engine ablation options;
//! * [`Backend`] — the pluggable execution setting:
//!   * [`UnitTime`] — the in-process infinite-resource executor on a
//!     virtual unit clock (Figures 5–8);
//!   * [`SimDb`] — desim + the finite-resource simulated database
//!     (Figure 9(b));
//!   * [`EngineServer`] — the real sharded server, as the caller built
//!     it: closed waves of batched submissions *or* an open Poisson
//!     pacer, with late drops accounted via `Request::deadline`;
//! * [`LoadReport`] — the one outcome shape: throughput, latency
//!   tallies and percentiles, per-phase counts, late-drop/abandon
//!   accounting, and backend extras (database stats, per-shard server
//!   stats).
//!
//! Every backend preserves the accounting identity
//! `submitted == completed + late_dropped + abandoned`.
//!
//! ```
//! use dflowperf::{Arrival, UnitTime, Workload};
//! use dflowgen::{generate, PatternParams};
//!
//! let params = PatternParams { nb_nodes: 16, nb_rows: 4, pct_enabled: 50, ..Default::default() };
//! let report = Workload::from_pattern(params, 5, 100)
//!     .strategy("PCE100".parse().unwrap())
//!     .run(&UnitTime::checked())
//!     .unwrap();
//! assert_eq!(report.completed, 5);
//! assert!(report.mean_work() > 0.0);
//! ```

mod server;
mod simdb;
mod unit;

use std::time::Duration;

use decisionflow::engine::{RuntimeOptions, ServerStats, Strategy};
#[cfg(doc)]
use decisionflow::server::EngineServer;
use decisionflow::telemetry::TelemetrySnapshot;
use desim::{SimTime, Tally};
use dflowgen::{generate, GeneratedFlow, PatternParams};

use crate::guideline::StrategyPoint;

pub use simdb::SimDb;
pub use unit::UnitTime;

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// How instances enter the system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Closed loop: `clients` instances are submitted together and the
    /// wave is awaited before the next one starts, for `waves` waves
    /// (total `clients × waves` instances unless
    /// [`Workload::instances`] overrides the total).
    Closed {
        /// Instances in flight per wave.
        clients: usize,
        /// Number of waves (ignored when an explicit instance total is
        /// set; the run then takes `ceil(total / clients)` waves, the
        /// last one partial).
        waves: usize,
    },
    /// Open loop: instances arrive in a Poisson stream at `rate` per
    /// second (virtual seconds on [`SimDb`], wall-clock seconds on
    /// [`EngineServer`]), regardless of how many are still in flight —
    /// the paper's §5 setting, where saturation curves emerge.
    Poisson {
        /// Mean arrival rate, instances per second.
        rate: f64,
    },
    /// Closed-loop **resubmission** traffic — the incremental-
    /// recomputation axis. Wave 0 submits every client's instance cold
    /// under a stable per-client label (seeding the server's snapshot
    /// store); each later wave resubmits the same labels with `churn`
    /// source attributes rebound (numeric values perturbed
    /// deterministically per wave). A resubmission is a **delta**
    /// ([`Request::delta_by_label`](decisionflow::api::Request::delta_by_label))
    /// with probability `delta_rate`, otherwise an identical full cold
    /// rerun — so sweeping `delta_rate` from 0 to 1 on the same
    /// workload measures the delta win directly. [`EngineServer`] only:
    /// [`UnitTime`] and [`SimDb`] have no snapshot store to resubmit
    /// against.
    Resubmission {
        /// Returning clients; each keeps one label (and one flow
        /// replica) for the whole run.
        clients: usize,
        /// Total waves, the cold seeding wave included.
        waves: usize,
        /// Probability that a resubmission rides the delta path
        /// instead of rerunning cold. Must be in `[0, 1]`.
        delta_rate: f64,
        /// Source attributes rebound per resubmission (clamped to the
        /// flow's source count; generated patterns have exactly one
        /// source, so `0` means "nothing changed" and `1` invalidates
        /// the full cone below the source).
        churn: usize,
    },
}

/// One load-generation experiment: which flows, how they arrive, under
/// which strategy — executed by any [`Backend`].
///
/// Instance `i` of the run uses flow replica `i % flows.len()`
/// (round-robin).
#[derive(Clone)]
pub struct Workload {
    flows: Vec<GeneratedFlow>,
    arrival: Arrival,
    strategy: Option<Strategy>,
    options: RuntimeOptions,
    instances: Option<usize>,
    warmup: usize,
    seed: u64,
    deadline: Option<Duration>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("flows", &self.flows.len())
            .field("arrival", &self.arrival)
            .field("strategy", &self.strategy)
            .field("instances", &self.instances)
            .field("warmup", &self.warmup)
            .field("seed", &self.seed)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// A workload over the given flow replicas. Defaults: one client
    /// closed loop (set [`arrivals`](Workload::arrivals) or
    /// [`instances`](Workload::instances)), no warmup, seed 1, no
    /// deadline. [`strategy`](Workload::strategy) is required.
    pub fn new(flows: impl Into<Vec<GeneratedFlow>>) -> Workload {
        Workload {
            flows: flows.into(),
            arrival: Arrival::Closed {
                clients: 1,
                waves: 0,
            },
            strategy: None,
            options: RuntimeOptions::default(),
            instances: None,
            warmup: 0,
            seed: 1,
            deadline: None,
        }
    }

    /// Sweep convenience: generate `reps` flows of `params` (seeds
    /// `base_seed..base_seed+reps`) and run each once, sequentially —
    /// the shape [`pattern_sweep`](crate::pattern_sweep) builds on.
    pub fn from_pattern(params: PatternParams, reps: u32, base_seed: u64) -> Workload {
        let flows: Vec<GeneratedFlow> = (0..reps)
            .map(|i| generate(params, base_seed + u64::from(i)).expect("valid pattern"))
            .collect();
        let n = flows.len();
        Workload::new(flows).arrivals(Arrival::Closed {
            clients: 1,
            waves: n,
        })
    }

    /// Set the arrival process.
    pub fn arrivals(mut self, arrival: Arrival) -> Workload {
        self.arrival = arrival;
        self
    }

    /// Set the execution strategy (required).
    pub fn strategy(mut self, strategy: Strategy) -> Workload {
        self.strategy = Some(strategy);
        self
    }

    /// Set engine ablation [`RuntimeOptions`].
    pub fn options(mut self, options: RuntimeOptions) -> Workload {
        self.options = options;
        self
    }

    /// Set the total number of instances explicitly. Required for
    /// [`Arrival::Poisson`]; for [`Arrival::Closed`] it overrides
    /// `clients × waves` (the run then takes as many waves as needed,
    /// the last one partial).
    pub fn instances(mut self, total: usize) -> Workload {
        self.instances = Some(total);
        self
    }

    /// Exclude the first `warmup` instances (by arrival order) from
    /// latency/work statistics and the throughput window.
    pub fn warmup(mut self, warmup: usize) -> Workload {
        self.warmup = warmup;
        self
    }

    /// Seed for every stochastic choice the run makes (arrival gaps,
    /// database service fluctuations). Two runs of the same workload
    /// on the same deterministic backend ([`UnitTime`], [`SimDb`])
    /// produce identical reports.
    pub fn seed(mut self, seed: u64) -> Workload {
        self.seed = seed;
        self
    }

    /// Give every instance a completion budget measured from its
    /// submission. Work is never cancelled (exactly the engine's
    /// `Request::deadline` contract); an instance that stabilizes past
    /// its budget is tallied as a **late drop** instead of a
    /// completion and excluded from latency statistics. [`UnitTime`]
    /// has no clock to compare against and ignores the deadline.
    pub fn deadline(mut self, budget: Duration) -> Workload {
        self.deadline = Some(budget);
        self
    }

    /// The flow replicas this workload runs over.
    pub fn flows(&self) -> &[GeneratedFlow] {
        &self.flows
    }

    /// Execute on a backend — sugar for `backend.run(self)`.
    pub fn run<B: Backend + ?Sized>(&self, backend: &B) -> Result<LoadReport, LoadError> {
        backend.run(self)
    }

    /// Validate the cross-backend invariants and resolve the instance
    /// total. Backends call this first.
    fn resolve(&self) -> Result<Resolved, LoadError> {
        if self.flows.is_empty() {
            return Err(LoadError::config("need at least one flow"));
        }
        let strategy = self
            .strategy
            .ok_or_else(|| LoadError::config("strategy not set (Workload::strategy)"))?;
        let total = match (self.instances, self.arrival) {
            (Some(n), _) => n,
            (None, Arrival::Closed { clients, waves }) => clients * waves,
            (None, Arrival::Resubmission { clients, waves, .. }) => clients * waves,
            (None, Arrival::Poisson { .. }) => {
                return Err(LoadError::config(
                    "open (Poisson) arrivals need an explicit Workload::instances total",
                ))
            }
        };
        if total == 0 {
            return Err(LoadError::config("need at least one instance"));
        }
        if self.warmup >= total {
            return Err(LoadError::config("warmup must leave instances to measure"));
        }
        match self.arrival {
            Arrival::Closed { clients: 0, .. } => {
                return Err(LoadError::config(
                    "closed arrivals need at least one client",
                ))
            }
            Arrival::Poisson { rate } if rate <= 0.0 => {
                return Err(LoadError::config("arrival rate must be positive"))
            }
            Arrival::Resubmission { clients: 0, .. } => {
                return Err(LoadError::config(
                    "resubmission arrivals need at least one client",
                ))
            }
            Arrival::Resubmission { delta_rate, .. } if !(0.0..=1.0).contains(&delta_rate) => {
                return Err(LoadError::config("delta_rate must be within [0, 1]"))
            }
            _ => {}
        }
        Ok(Resolved { strategy, total })
    }
}

struct Resolved {
    strategy: Strategy,
    total: usize,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a [`Workload`] could not run.
#[derive(Debug)]
pub enum LoadError {
    /// The workload is misconfigured (empty flows, zero instances,
    /// warmup ≥ total, missing strategy, non-positive rate, …).
    Config(String),
    /// Execution failed mid-run (engine error, submission rejected,
    /// oracle divergence on [`UnitTime`]).
    Exec(String),
}

impl LoadError {
    fn config(msg: impl Into<String>) -> LoadError {
        LoadError::Config(msg.into())
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Config(m) => write!(f, "{m}"),
            LoadError::Exec(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for LoadError {}

// ---------------------------------------------------------------------------
// LoadReport
// ---------------------------------------------------------------------------

/// The unit latencies are reported in — virtual units of processing
/// on [`UnitTime`], milliseconds everywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyUnit {
    /// The paper's abstract TimeInUnits (virtual clock).
    Units,
    /// Milliseconds (virtual on [`SimDb`], wall-clock on [`EngineServer`]).
    Millis,
}

impl std::fmt::Display for LatencyUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyUnit::Units => write!(f, "units"),
            LatencyUnit::Millis => write!(f, "ms"),
        }
    }
}

/// Order statistics of the post-warmup, in-deadline response times.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    fn from_samples(mut samples: Vec<f64>) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        // Nearest-rank: the smallest sample ≥ p of the distribution.
        let at = |p: f64| {
            let rank = (p * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        Percentiles {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Completion counts split by measurement phase (warmup vs measured)
/// and deadline outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// In-deadline completions among the first `warmup` instances.
    pub warmup_completed: usize,
    /// In-deadline completions among the measured instances.
    pub measured_completed: usize,
    /// Late drops among the warmup instances.
    pub warmup_late: usize,
    /// Late drops among the measured instances.
    pub measured_late: usize,
}

/// [`SimDb`]-only extras: what the simulated database observed.
#[derive(Clone, Copy, Debug)]
pub struct SimDbStats {
    /// Time-averaged global multiprogramming level.
    pub mean_gmpl: f64,
    /// Mean realized `UnitTime`, ms per unit of processing.
    pub mean_unit_time_ms: f64,
    /// Total virtual time of the run.
    pub makespan: SimTime,
}

/// [`EngineServer`]-only extras: what the real sharded server observed.
#[derive(Clone, Debug)]
pub struct ServerSideStats {
    /// Final per-shard statistics snapshot.
    pub stats: ServerStats,
    /// The server's telemetry at the end of the run: per-stage latency
    /// histograms (route / validate / queue-wait / execute / e2e) and
    /// lifecycle counters, so a load report decomposes its end-to-end
    /// latency into where the time actually went — renderable as JSON
    /// or Prometheus text.
    pub telemetry: TelemetrySnapshot,
    /// Arrival-schedule fidelity of the open-loop pacer thread
    /// (`None` on closed-loop runs, which have no schedule to hit).
    pub pacer: Option<PacerStats>,
}

/// How closely an open-loop run's dedicated pacer thread hit its
/// seeded-exponential arrival schedule. Deviations are measured
/// against the *absolute* schedule (run start + cumulative gaps), so
/// one late arrival does not silently shift every later one — lag
/// never compounds, and the span comparison is an honest statement of
/// the offered rate the server actually saw.
#[derive(Clone, Copy, Debug)]
pub struct PacerStats {
    /// Arrivals the pacer emitted.
    pub arrivals: usize,
    /// Scheduled offset of the last arrival from the first, seconds.
    pub scheduled_span_secs: f64,
    /// Actual offset of the last emitted arrival from the first,
    /// seconds. Offered-rate fidelity is `actual_span_secs` vs
    /// `scheduled_span_secs`.
    pub actual_span_secs: f64,
    /// Mean per-arrival |actual − scheduled|, seconds.
    pub mean_abs_lag_secs: f64,
    /// Worst per-arrival |actual − scheduled|, seconds.
    pub max_abs_lag_secs: f64,
}

/// Measured outcome of one [`Workload`] run — the same shape on every
/// backend, with backend-specific extras in [`sim`](LoadReport::sim) /
/// [`server`](LoadReport::server).
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Which backend executed the run (`"unit-time"`, `"simdb"`,
    /// `"server"`).
    pub backend: &'static str,
    /// The strategy every instance ran under.
    pub strategy: Strategy,
    /// The arrival process that drove the run.
    pub arrival: Arrival,
    /// Instances submitted (always the resolved workload total).
    pub submitted: usize,
    /// Instances that stabilized within their deadline (warmup
    /// included). `submitted == completed + late_dropped + abandoned`.
    pub completed: usize,
    /// Instances that stabilized *after* their deadline: delivered in
    /// full, but counted as drops and excluded from latency stats.
    pub late_dropped: usize,
    /// Instances that never delivered a result (a task body panicked;
    /// only possible on the [`EngineServer`] backend).
    pub abandoned: usize,
    /// Completion counts per phase.
    pub phases: PhaseCounts,
    /// Post-warmup in-deadline response times, in
    /// [`latency_unit`](LoadReport::latency_unit)s.
    pub responses: Tally,
    /// The unit of [`responses`](LoadReport::responses) and
    /// [`percentiles`](LoadReport::percentiles).
    pub latency_unit: LatencyUnit,
    /// Order statistics of the same samples.
    pub percentiles: Percentiles,
    /// Post-warmup per-instance Work (units of processing).
    pub work: Tally,
    /// Post-warmup per-instance wasted (speculative, discarded) work.
    pub wasted: Tally,
    /// Post-warmup per-instance unneeded-attribute detections.
    pub unneeded: Tally,
    /// Post-warmup in-deadline completions per second of the
    /// measurement window (virtual seconds on [`SimDb`], wall-clock on
    /// [`EngineServer`]; 0 on [`UnitTime`], which has no shared clock) —
    /// the *goodput*, which collapses toward zero once a deadline is
    /// set and the backlog blows every budget.
    pub throughput_per_sec: f64,
    /// Post-warmup deliveries per second of the measurement window,
    /// late drops included — the rate the execution setting actually
    /// finishes work at, which rises with offered load and then
    /// saturates at capacity.
    pub completion_throughput_per_sec: f64,
    /// Duration of the whole run, warmup included (wall-clock on
    /// [`EngineServer`], virtual on [`SimDb`], zero on [`UnitTime`]).
    pub wall: Duration,
    /// Simulated-database extras ([`SimDb`] backend only).
    pub sim: Option<SimDbStats>,
    /// Sharded-server extras ([`EngineServer`] backend only).
    pub server: Option<ServerSideStats>,
}

impl LoadReport {
    /// Mean post-warmup response time, in
    /// [`latency_unit`](LoadReport::latency_unit)s.
    pub fn mean_response(&self) -> f64 {
        self.responses.mean()
    }

    /// Mean post-warmup Work per instance.
    pub fn mean_work(&self) -> f64 {
        self.work.mean()
    }

    /// Mean post-warmup wasted work per instance.
    pub fn mean_wasted(&self) -> f64 {
        self.wasted.mean()
    }

    /// Mean post-warmup unneeded detections per instance.
    pub fn mean_unneeded(&self) -> f64 {
        self.unneeded.mean()
    }

    /// This report as a guideline-map point (meaningful for
    /// [`UnitTime`] runs, where responses are TimeInUnits).
    pub fn point(&self) -> StrategyPoint {
        StrategyPoint {
            strategy: self.strategy,
            work: self.mean_work(),
            time_units: self.mean_response(),
        }
    }

    /// The accounting identity every backend guarantees.
    pub fn accounts_exactly(&self) -> bool {
        self.submitted == self.completed + self.late_dropped + self.abandoned
            && self.completed == self.phases.warmup_completed + self.phases.measured_completed
            && self.late_dropped == self.phases.warmup_late + self.phases.measured_late
    }

    /// Memo-table hit rate the server observed over the run
    /// (`hits / (hits + misses)`). `None` off the server backend or
    /// when the server was built without `ServerBuilder::memoize`.
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let tele = &self.server.as_ref()?.telemetry;
        let hits = tele.counter("memo_hits")?;
        let misses = tele.counter("memo_misses").unwrap_or(0);
        let lookups = hits + misses;
        if lookups == 0 {
            return None;
        }
        Some(hits as f64 / lookups as f64)
    }

    /// `(reused, reexecuted)` attribute totals across every delta
    /// resubmission the server executed during the run — the measured
    /// size of the retained set vs the recomputed cone. `None` off the
    /// server backend or when no delta resubmission ran.
    pub fn delta_counts(&self) -> Option<(u64, u64)> {
        let tele = &self.server.as_ref()?.telemetry;
        let reused = tele.counter("delta_reused")?;
        if reused == 0 {
            return None;
        }
        Some((reused, tele.counter("delta_reexecuted").unwrap_or(0)))
    }
}

// ---------------------------------------------------------------------------
// Backend trait
// ---------------------------------------------------------------------------

/// An execution setting a [`Workload`] can run against.
pub trait Backend {
    /// Short name stamped into [`LoadReport::backend`].
    fn name(&self) -> &'static str;
    /// Execute the workload.
    fn run(&self, workload: &Workload) -> Result<LoadReport, LoadError>;
}

// ---------------------------------------------------------------------------
// Shared accumulation
// ---------------------------------------------------------------------------

/// The run-level facts a backend hands to [`Accounting::into_report`].
struct ReportFrame<'a> {
    backend: &'static str,
    workload: &'a Workload,
    strategy: Strategy,
    submitted: usize,
    window_secs: f64,
    wall: Duration,
    latency_unit: LatencyUnit,
}

/// Accumulates the backend-independent half of a [`LoadReport`].
struct Accounting {
    warmup: usize,
    deadlined: bool,
    phases: PhaseCounts,
    responses: Tally,
    samples: Vec<f64>,
    work: Tally,
    wasted: Tally,
    unneeded: Tally,
    abandoned: usize,
}

impl Accounting {
    fn new(warmup: usize, deadlined: bool) -> Accounting {
        Accounting {
            warmup,
            deadlined,
            phases: PhaseCounts::default(),
            responses: Tally::new(),
            samples: Vec::new(),
            work: Tally::new(),
            wasted: Tally::new(),
            unneeded: Tally::new(),
            abandoned: 0,
        }
    }

    /// Record one delivered instance: `idx` is its arrival index,
    /// `late` whether it blew its deadline.
    fn delivered(
        &mut self,
        idx: usize,
        late: bool,
        response: f64,
        metrics: &decisionflow::engine::InstanceMetrics,
    ) {
        let measured = idx >= self.warmup;
        match (late, measured) {
            (true, true) => self.phases.measured_late += 1,
            (true, false) => self.phases.warmup_late += 1,
            (false, true) => {
                self.phases.measured_completed += 1;
                self.responses.add(response);
                self.samples.push(response);
                self.work.add(metrics.work as f64);
                self.wasted.add(metrics.wasted_work as f64);
                self.unneeded.add(metrics.unneeded_detected as f64);
            }
            (false, false) => self.phases.warmup_completed += 1,
        }
    }

    fn abandoned(&mut self) {
        self.abandoned += 1;
    }

    /// Build the report from the run's frame data. `window_secs` is
    /// the measurement window (0 when the backend has no shared clock
    /// — both throughput rates then report 0).
    fn into_report(self, frame: ReportFrame<'_>) -> LoadReport {
        let ReportFrame {
            backend,
            workload,
            strategy,
            submitted,
            window_secs,
            wall,
            latency_unit,
        } = frame;
        debug_assert!(self.deadlined || self.phases.warmup_late + self.phases.measured_late == 0);
        let rate = |count: usize| {
            if window_secs > 0.0 {
                count as f64 / window_secs
            } else {
                0.0
            }
        };
        LoadReport {
            backend,
            strategy,
            arrival: workload.arrival,
            submitted,
            completed: self.phases.warmup_completed + self.phases.measured_completed,
            late_dropped: self.phases.warmup_late + self.phases.measured_late,
            abandoned: self.abandoned,
            throughput_per_sec: rate(self.phases.measured_completed),
            completion_throughput_per_sec: rate(
                self.phases.measured_completed + self.phases.measured_late,
            ),
            phases: self.phases,
            responses: self.responses,
            latency_unit,
            percentiles: Percentiles::from_samples(self.samples),
            work: self.work,
            wasted: self.wasted,
            unneeded: self.unneeded,
            wall,
            sim: None,
            server: None,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use decisionflow::server::EngineServer;

    /// A fresh server of `shards` × `workers_per_shard`.
    fn server(shards: usize, workers_per_shard: usize) -> EngineServer {
        EngineServer::builder()
            .shards(shards)
            .workers_per_shard(workers_per_shard)
            .build()
            .unwrap()
    }

    fn flows(n: u64, params: PatternParams) -> Vec<GeneratedFlow> {
        (0..n)
            .map(|i| generate(params, 1000 + i).unwrap())
            .collect()
    }

    fn small() -> PatternParams {
        PatternParams {
            nb_nodes: 16,
            nb_rows: 4,
            pct_enabled: 75,
            ..Default::default()
        }
    }

    #[test]
    fn one_workload_runs_on_all_three_backends() {
        let w = Workload::new(flows(3, small()))
            .arrivals(Arrival::Closed {
                clients: 4,
                waves: 6,
            })
            .warmup(4)
            .seed(7)
            .strategy("PCE100".parse().unwrap());
        let unit = w.run(&UnitTime::checked()).unwrap();
        let sim = w.run(&SimDb::default()).unwrap();
        let server = w.run(&server(2, 1)).unwrap();
        for r in [&unit, &sim, &server] {
            assert_eq!(r.submitted, 24, "{}", r.backend);
            assert_eq!(r.completed, 24, "{}", r.backend);
            assert_eq!(r.abandoned, 0, "{}", r.backend);
            assert_eq!(r.late_dropped, 0, "{}", r.backend);
            assert!(r.accounts_exactly(), "{}", r.backend);
            assert_eq!(r.responses.count(), 20, "{}: post-warmup", r.backend);
            assert!(r.mean_work() > 0.0, "{}", r.backend);
            assert!(r.percentiles.p50 <= r.percentiles.p99, "{}", r.backend);
            assert!(r.percentiles.p99 <= r.percentiles.max, "{}", r.backend);
        }
        assert_eq!(unit.latency_unit, LatencyUnit::Units);
        assert_eq!(sim.latency_unit, LatencyUnit::Millis);
        assert!(sim.sim.is_some() && sim.server.is_none());
        assert!(server.server.is_some() && server.sim.is_none());
        assert!(server.throughput_per_sec > 0.0);
        // All backends execute the same engine; Work may differ
        // slightly run-to-run (unneeded-pruning races launches under
        // real/simulated timing) but stays in the same ballpark.
        assert!((unit.mean_work() - sim.mean_work()).abs() / unit.mean_work() < 0.2);
        assert!((unit.mean_work() - server.mean_work()).abs() / unit.mean_work() < 0.2);
    }

    #[test]
    fn simdb_backend_is_deterministic_per_seed() {
        let fl = flows(2, small());
        let w = Workload::new(fl)
            .arrivals(Arrival::Poisson { rate: 5.0 })
            .instances(20)
            .warmup(5)
            .seed(9)
            .strategy("PSE100".parse().unwrap());
        let a = w.run(&SimDb::default()).unwrap();
        let b = w.run(&SimDb::default()).unwrap();
        assert_eq!(a.responses.mean(), b.responses.mean());
        assert_eq!(a.sim.unwrap().makespan, b.sim.unwrap().makespan);
        assert_eq!(a.percentiles, b.percentiles);
    }

    #[test]
    fn simdb_contention_raises_response_time() {
        let fl = flows(3, small());
        let base = Workload::new(fl)
            .instances(60)
            .warmup(15)
            .seed(5)
            .strategy("PCE100".parse().unwrap());
        let quiet = base
            .clone()
            .arrivals(Arrival::Poisson { rate: 2.0 })
            .run(&SimDb::default())
            .unwrap();
        let busy = base
            .arrivals(Arrival::Poisson { rate: 25.0 })
            .run(&SimDb::default())
            .unwrap();
        assert!(
            busy.responses.mean() > quiet.responses.mean(),
            "contention must raise response: {} vs {}",
            busy.responses.mean(),
            quiet.responses.mean()
        );
        assert!(busy.sim.unwrap().mean_gmpl > quiet.sim.unwrap().mean_gmpl);
    }

    #[test]
    fn simdb_closed_waves_bound_concurrency() {
        // One client, closed loop: at most one instance in the system,
        // so Gmpl never exceeds what a single instance can drive and
        // waves arrive back-to-back.
        let fl = flows(2, small());
        let w = Workload::new(fl)
            .arrivals(Arrival::Closed {
                clients: 1,
                waves: 10,
            })
            .seed(3)
            .strategy("PCE0".parse().unwrap());
        let r = w.run(&SimDb::default()).unwrap();
        assert_eq!(r.completed, 10);
        assert!(r.accounts_exactly());
        assert!(
            r.sim.unwrap().mean_gmpl <= 1.0 + 1e-9,
            "sequential strategy, one client: at most one query in flight"
        );
    }

    #[test]
    fn simdb_deadline_accounting_is_exact() {
        // Offered load far beyond capacity with a tight virtual
        // deadline: some instances must blow the budget, and the
        // identity submitted = completed + late + abandoned holds.
        let fl = flows(2, small());
        let w = Workload::new(fl)
            .arrivals(Arrival::Poisson { rate: 50.0 })
            .instances(60)
            .warmup(10)
            .seed(11)
            .deadline(Duration::from_millis(400))
            .strategy("PCE100".parse().unwrap());
        let r = w.run(&SimDb::default()).unwrap();
        assert_eq!(r.submitted, 60);
        assert!(r.accounts_exactly());
        assert!(r.late_dropped > 0, "overload must produce late drops");
        assert_eq!(r.abandoned, 0, "simdb never abandons");
        assert_eq!(
            r.responses.count() as usize,
            r.phases.measured_completed,
            "latency stats only cover in-deadline measured instances"
        );
        // Late drops and completions partition by phase.
        assert_eq!(
            r.completed + r.late_dropped,
            60,
            "every instance still stabilizes"
        );
    }

    #[test]
    fn server_closed_spreads_over_shards() {
        let fl = flows(3, small());
        let r = Workload::new(fl)
            .arrivals(Arrival::Closed {
                clients: 16,
                waves: 4,
            })
            .warmup(8)
            .strategy("PSE100".parse().unwrap())
            .run(&server(4, 1))
            .unwrap();
        assert_eq!(r.completed, 64);
        assert_eq!(r.responses.count(), 56, "post-warmup instances");
        let side = r.server.as_ref().unwrap();
        assert!(
            side.stats.shards_used() >= 2,
            "instances must land on ≥2 shards"
        );
        assert!(r.throughput_per_sec > 0.0);
        assert_eq!(side.stats.shard_count(), 4);
        assert_eq!(side.stats.completed(), 64);
        assert_eq!(side.stats.in_flight(), 0);
        assert_eq!(side.stats.queued_jobs(), 0);
    }

    #[test]
    fn server_durable_mode_logs_and_reports_wal_metrics() {
        let dir = std::env::temp_dir().join(format!(
            "dflowperf-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let r = Workload::new(flows(2, small()))
            .arrivals(Arrival::Closed {
                clients: 4,
                waves: 3,
            })
            .strategy("PCE100".parse().unwrap())
            .run(
                &EngineServer::builder()
                    .shards(2)
                    .workers_per_shard(1)
                    .durable(dir.clone())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(r.completed, 12);
        let tele = &r.server.as_ref().unwrap().telemetry;
        assert!(
            tele.counter("wal_appends").unwrap_or(0) > 0,
            "durable runs surface WAL metrics in the report's telemetry"
        );
        // The store outlives the run: every instance is sealed on disk.
        let store = decisionflow::store::EventStore::open(&dir).unwrap();
        assert_eq!(store.recovered().pending.len(), 0, "nothing left pending");
        assert_eq!(store.recovered().sealed.len(), 12);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_open_paces_reacts_and_accounts() {
        // A small open-arrival run against the real server: every
        // instance is accounted, and the identity holds with a
        // deadline set.
        let fl: Vec<GeneratedFlow> = flows(2, small())
            .into_iter()
            .map(|f| f.with_unit_delay(Duration::from_micros(100)))
            .collect();
        let r = Workload::new(fl)
            .arrivals(Arrival::Poisson { rate: 200.0 })
            .instances(40)
            .warmup(8)
            .seed(2)
            .deadline(Duration::from_secs(30))
            .strategy("PCE100".parse().unwrap())
            .run(&server(2, 1))
            .unwrap();
        assert_eq!(r.submitted, 40);
        assert!(r.accounts_exactly());
        assert_eq!(r.abandoned, 0);
        assert_eq!(r.late_dropped, 0, "30s budget is never exceeded here");
        assert_eq!(r.responses.count(), 32);
        assert!(r.throughput_per_sec > 0.0);
        let side = r.server.unwrap();
        assert!(side.stats.completed() == 40);
        let pacer = side.pacer.expect("open runs report pacer stats");
        assert_eq!(pacer.arrivals, 40);
        assert!(pacer.scheduled_span_secs > 0.0);
    }

    /// Offered-rate fidelity: at 10k/s the dedicated pacer thread's
    /// emitted arrival span must stay within 1% of its
    /// seeded-exponential schedule. The absolute-schedule design means
    /// transient stalls self-correct, so the bound is stable —
    /// but the test still allows a noisy-neighbor retry before
    /// declaring the pacer broken.
    #[test]
    fn server_open_pacer_holds_offered_rate_at_10k_per_sec() {
        let tiny = PatternParams {
            nb_nodes: 4,
            nb_rows: 2,
            pct_enabled: 100,
            ..Default::default()
        };
        let mut last_err = String::new();
        for attempt in 0..3u64 {
            let r = Workload::new(flows(1, tiny))
                .arrivals(Arrival::Poisson { rate: 10_000.0 })
                .instances(2_000)
                .warmup(100)
                .seed(23 + attempt)
                .strategy("PCE0".parse().unwrap())
                .run(&server(1, 2))
                .unwrap();
            assert!(r.accounts_exactly());
            let pacer = r
                .server
                .unwrap()
                .pacer
                .expect("open runs report pacer stats");
            assert_eq!(pacer.arrivals, 2_000, "every arrival emitted");
            assert!(
                pacer.scheduled_span_secs > 0.1,
                "2000 arrivals at 10k/s schedule ≈ 0.2s, got {}",
                pacer.scheduled_span_secs
            );
            let err = (pacer.actual_span_secs - pacer.scheduled_span_secs).abs()
                / pacer.scheduled_span_secs;
            if err <= 0.01 {
                return;
            }
            last_err = format!(
                "attempt {attempt}: span error {:.3}% (actual {:.4}s vs scheduled {:.4}s, \
                 max per-arrival lag {:.1}µs)",
                err * 100.0,
                pacer.actual_span_secs,
                pacer.scheduled_span_secs,
                pacer.max_abs_lag_secs * 1e6,
            );
        }
        panic!("pacer missed 1% offered-rate fidelity on 3 attempts: {last_err}");
    }

    #[test]
    fn workload_validation_rejects_bad_configs() {
        let fl = flows(1, small());
        let strat: Strategy = "PCE0".parse().unwrap();
        let err = |w: Workload| w.run(&UnitTime::checked()).unwrap_err().to_string();
        assert!(err(Workload::new(Vec::<GeneratedFlow>::new())
            .strategy(strat)
            .instances(1))
        .contains("at least one flow"));
        assert!(err(Workload::new(fl.clone()).instances(1)).contains("strategy not set"));
        assert!(err(Workload::new(fl.clone()).strategy(strat)).contains("at least one instance"));
        assert!(err(Workload::new(fl.clone())
            .strategy(strat)
            .arrivals(Arrival::Poisson { rate: 2.0 }))
        .contains("instances"));
        assert!(err(Workload::new(fl.clone())
            .strategy(strat)
            .arrivals(Arrival::Poisson { rate: -1.0 })
            .instances(5))
        .contains("rate must be positive"));
        assert!(err(Workload::new(fl.clone())
            .strategy(strat)
            .instances(5)
            .warmup(5))
        .contains("warmup must leave"));
        assert!(err(Workload::new(fl.clone())
            .strategy(strat)
            .instances(6)
            .arrivals(Arrival::Resubmission {
                clients: 0,
                waves: 3,
                delta_rate: 1.0,
                churn: 0,
            }))
        .contains("at least one client"));
        assert!(err(Workload::new(fl)
            .strategy(strat)
            .arrivals(Arrival::Resubmission {
                clients: 2,
                waves: 3,
                delta_rate: 1.5,
                churn: 0,
            }))
        .contains("delta_rate"));
    }

    /// Resubmission waves on the server backend: wave 0 seeds every
    /// client's snapshot, later waves ride the delta path half the
    /// time. With zero churn the resubmitted sources equal the
    /// snapshot exactly, so every delta reuses the whole flow and
    /// re-executes nothing, while every cold resubmission replays
    /// identical inputs and hits the memo table populated by earlier
    /// waves (waves are awaited, so those entries are committed).
    #[test]
    fn resubmission_mode_reuses_snapshots_and_hits_memo() {
        let w = Workload::new(flows(2, small()))
            .arrivals(Arrival::Resubmission {
                clients: 4,
                waves: 5,
                delta_rate: 0.5,
                churn: 0,
            })
            .warmup(4)
            .seed(21)
            .strategy("PCE100".parse().unwrap());
        let r = w
            .run(
                &EngineServer::builder()
                    .shards(2)
                    .workers_per_shard(1)
                    .memoize(256)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(r.submitted, 20);
        assert_eq!(r.completed, 20);
        assert!(r.accounts_exactly());
        let (reused, reexecuted) = r.delta_counts().expect("deltas ran");
        assert!(reused > 0, "zero-churn deltas must retain values");
        assert_eq!(
            reexecuted, 0,
            "zero-churn deltas re-execute nothing: {reexecuted}"
        );
        let hit_rate = r.memo_hit_rate().expect("memo enabled");
        assert!(
            hit_rate > 0.0,
            "clients sharing a flow must hit the memo: {hit_rate}"
        );
    }

    /// Churned resubmissions rebind a source each wave, so the delta
    /// cone is non-empty and the engine relaunches downstream work.
    /// The run still completes and accounts exactly — and the request
    /// sequence is seed-deterministic, so two runs agree on counts.
    #[test]
    fn resubmission_churn_reexecutes_and_is_seed_deterministic() {
        let w = Workload::new(flows(1, small()))
            .arrivals(Arrival::Resubmission {
                clients: 2,
                waves: 4,
                delta_rate: 0.5,
                churn: 1,
            })
            .seed(13)
            .strategy("PCE100".parse().unwrap());
        let a = w.run(&server(1, 2)).unwrap();
        let b = w.run(&server(1, 2)).unwrap();
        for r in [&a, &b] {
            assert_eq!(r.submitted, 8);
            assert_eq!(r.completed, 8);
            assert!(r.accounts_exactly());
            assert!(r.memo_hit_rate().is_none(), "memoization off by default");
        }
        let tel = |r: &LoadReport| {
            let t = &r.server.as_ref().unwrap().telemetry;
            (t.counter("delta_reused"), t.counter("delta_reexecuted"))
        };
        assert_eq!(tel(&a), tel(&b), "same seed, same delta traffic");
    }

    /// Resubmission needs a completion-snapshot store, which only the
    /// server backend has — the closed-world backends refuse upfront.
    #[test]
    fn resubmission_rejected_off_server() {
        let w = Workload::new(flows(1, small()))
            .arrivals(Arrival::Resubmission {
                clients: 2,
                waves: 2,
                delta_rate: 1.0,
                churn: 0,
            })
            .strategy("PCE0".parse().unwrap());
        for msg in [
            w.run(&UnitTime::checked()).unwrap_err().to_string(),
            w.run(&SimDb::default()).unwrap_err().to_string(),
        ] {
            assert!(msg.contains("server backend"), "{msg}");
        }
    }

    #[test]
    fn percentiles_order_statistics() {
        let p = Percentiles::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p90, 90.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert_eq!(Percentiles::from_samples(vec![]), Percentiles::default());
    }

    /// Parallel strategies beat sequential ones at light load.
    #[test]
    fn parallel_strategy_beats_sequential_at_light_load() {
        let base = Workload::new(flows(3, small()))
            .arrivals(Arrival::Poisson { rate: 1.0 })
            .instances(30)
            .warmup(5)
            .seed(12);
        let seq = base
            .clone()
            .strategy("PCE0".parse().unwrap())
            .run(&SimDb::default())
            .unwrap();
        let par = base
            .strategy("PCE100".parse().unwrap())
            .run(&SimDb::default())
            .unwrap();
        assert!(
            par.responses.mean() < seq.responses.mean(),
            "parallelism wins when the DB is idle: {} vs {}",
            par.responses.mean(),
            seq.responses.mean()
        );
    }

    /// Work on the unit-time backend predicts work on the simulated
    /// database closely (same engine, different clock; exact equality
    /// is not guaranteed — unneeded-pruning races launches under
    /// simulated timing, and speculation is timing-dependent by
    /// design).
    #[test]
    fn unit_and_simdb_agree_on_work() {
        let w = Workload::new(flows(2, small()))
            .instances(8)
            .arrivals(Arrival::Closed {
                clients: 1,
                waves: 8,
            })
            .strategy("PCE100".parse().unwrap());
        let unit = w.run(&UnitTime::checked()).unwrap();
        let sim = w.run(&SimDb::default()).unwrap();
        let rel = (unit.mean_work() - sim.mean_work()).abs() / unit.mean_work();
        assert!(
            rel < 0.2,
            "unit {} vs simdb {}",
            unit.mean_work(),
            sim.mean_work()
        );
    }
}

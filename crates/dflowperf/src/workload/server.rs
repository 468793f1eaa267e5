//! [`EngineServer`] as a [`Backend`]: the real sharded server, driven
//! in closed waves or by an open pacer.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use decisionflow::api::{Request, Ticket};
use decisionflow::engine::Strategy;
use decisionflow::server::EngineServer;
use decisionflow::value::Value;
use desim::{exp_time, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    Accounting, Arrival, Backend, LatencyUnit, LoadError, LoadReport, PacerStats, ReportFrame,
    Resolved, ServerSideStats, Workload,
};

impl Accounting {
    /// Account one server ticket: deliver its result (recording the
    /// deadline outcome) or count the abandonment. Latency and lateness
    /// are server-measured fields of the result, so when the ticket is
    /// waited on does not change what is recorded.
    fn settle_ticket(&mut self, idx: usize, ticket: Ticket) {
        match ticket.wait() {
            Ok(r) => {
                self.delivered(
                    idx,
                    r.deadline_exceeded,
                    r.elapsed.as_secs_f64() * 1e3,
                    &r.record.metrics,
                );
            }
            Err(_gone) => self.abandoned(),
        }
    }
}

/// The `i`-th request of a server run. The strategy is set explicitly
/// (not left to the server default), so the run uses the workload's
/// strategy whatever default the caller built the server with.
fn server_request(workload: &Workload, strategy: Strategy, i: usize) -> Request {
    let flow = &workload.flows[i % workload.flows.len()];
    let mut req = Request::named(format!("flow{}", i % workload.flows.len()))
        .sources(flow.sources.clone())
        .options(workload.options)
        .strategy(strategy);
    if let Some(budget) = workload.deadline {
        req = req.deadline(budget);
    }
    req
}

/// Closed waves against an already-built server: `clients`-sized
/// `submit_many` batches, each wave awaited before the next (which
/// also guarantees a resubmission finds its client's previous
/// completion already committed). `request(i)` builds the run's
/// `i`-th request; it is called in index order. Requests are durable
/// iff the server has a store to log them to.
fn run_waves_on(
    server: &EngineServer,
    workload: &Workload,
    strategy: Strategy,
    total: usize,
    clients: usize,
    mut request: impl FnMut(usize) -> Request,
) -> Result<LoadReport, LoadError> {
    let durable = server.store().is_some();
    let mut acc = Accounting::new(workload.warmup, workload.deadline.is_some());
    let t0 = Instant::now();
    // Starts when the first wave containing a measured instance is
    // submitted, so the throughput window covers every measured
    // instance but neither server construction nor pure-warmup
    // waves.
    let mut measure_t0: Option<Instant> = None;
    let mut next = 0usize;
    while next < total {
        let wave = clients.min(total - next);
        if measure_t0.is_none() && next + wave > workload.warmup {
            measure_t0 = Some(Instant::now());
        }
        let tickets = server
            .submit_many((next..next + wave).map(|i| request(i).durable(durable)))
            .map_err(|e| LoadError::Exec(e.to_string()))?;
        for (k, t) in tickets.into_iter().enumerate() {
            acc.settle_ticket(next + k, t);
        }
        next += wave;
    }
    let wall = t0.elapsed();
    let measured_wall = measure_t0.map(|t| t.elapsed()).unwrap_or(wall);
    let mut report = acc.into_report(ReportFrame {
        backend: server.name(),
        workload,
        strategy,
        submitted: total,
        window_secs: measured_wall.as_secs_f64().max(1e-9),
        wall,
        latency_unit: LatencyUnit::Millis,
    });
    report.server = Some(server_side(server, None));
    Ok(report)
}

/// The server's end-of-run view for the report. A durable run
/// quiesces the WAL before the snapshot, so the report's `wal_*`
/// metrics cover every append the run enqueued.
fn server_side(server: &EngineServer, pacer: Option<PacerStats>) -> ServerSideStats {
    if let Some(store) = server.store() {
        let _ = store.sync();
    }
    ServerSideStats {
        stats: server.stats(),
        telemetry: server.telemetry().snapshot(),
        pacer,
    }
}

/// Deterministic per-wave source perturbation for resubmission churn:
/// numeric values shift by the wave number (so every wave's binding
/// differs from the last snapshot's), non-numeric values are left
/// alone (an unchanged binding simply stays out of the delta cone).
fn perturb(v: Value, wave: usize) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_add(wave as i64)),
        Value::Float(f) => Value::Float(f + wave as f64),
        other => other,
    }
}

/// The request client `c` submits in `wave` of a resubmission run:
/// wave 0 is the cold labeled seeding run; later waves rebind `churn`
/// sources (rotating which ones, so the cone moves around the schema)
/// and ride the delta path when `delta` is set.
fn resub_request(
    workload: &Workload,
    strategy: Strategy,
    c: usize,
    wave: usize,
    churn: usize,
    delta: bool,
) -> Request {
    let mut req = server_request(workload, strategy, c).label(format!("client{c}"));
    if wave > 0 && churn > 0 {
        let flow = &workload.flows[c % workload.flows.len()];
        let mut sources = flow.sources.clone();
        let srcs = flow.schema.sources();
        for k in 0..churn.min(srcs.len()) {
            let a = srcs[(wave * churn + k) % srcs.len()];
            if let Some(v) = sources.get(a).cloned() {
                sources.set(a, perturb(v, wave));
            }
        }
        req = req.sources(sources);
    }
    if wave > 0 && delta {
        req = req.delta_by_label();
    }
    req
}

/// Open Poisson pacing against an already-built server, split across
/// two threads:
///
/// * a **pacer** that submits each instance at its (seeded,
///   exponential-gap) arrival time against the *absolute* schedule —
///   sleeping most of each gap and spinning the last stretch, so
///   thread wake-up latency does not make every arrival a scheduler
///   quantum late at ≫1k/s offered rates — and never waits on
///   results;
/// * a **collector** (the calling thread) that adopts the tickets from
///   the pacer and settles them in arrival order, so no submission
///   stalls while a completion is being accounted. The measurement
///   window closes when the last ticket settles.
///
/// Pacing continues regardless of backlog: that is what makes the
/// system saturate when offered load exceeds capacity. The realized
/// schedule fidelity is reported in [`PacerStats`]. Requests are
/// durable iff the server has a store to log them to.
fn run_open_on(
    server: &EngineServer,
    workload: &Workload,
    strategy: Strategy,
    total: usize,
    rate: f64,
) -> Result<LoadReport, LoadError> {
    let durable = server.store().is_some();
    let mean = SimTime::from_secs_f64(1.0 / rate);
    let mut acc = Accounting::new(workload.warmup, workload.deadline.is_some());
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Ticket)>();

    let (paced, last_done) = std::thread::scope(|scope| {
        let pacer = scope.spawn(move || -> Result<(PacerStats, Instant), LoadError> {
            // Spin-finish window: sleep until this close to the target,
            // then spin. Large enough to absorb typical wake-up
            // latency, small enough not to monopolize a core.
            const SPIN: Duration = Duration::from_micros(60);
            let mut rng = StdRng::seed_from_u64(workload.seed);
            let start = Instant::now();
            let mut measure_t0 = start;
            let mut scheduled = Duration::ZERO;
            let mut first = (Duration::ZERO, Duration::ZERO);
            let mut last = (Duration::ZERO, Duration::ZERO);
            let mut lag_sum = 0f64;
            let mut lag_max = 0f64;
            let mut emitted = 0usize;
            for idx in 0..total {
                let target = start + scheduled;
                loop {
                    let now = Instant::now();
                    if now >= target {
                        break;
                    }
                    let remaining = target - now;
                    if remaining > SPIN {
                        std::thread::sleep(remaining - SPIN);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                if idx == workload.warmup {
                    measure_t0 = Instant::now();
                }
                let ticket = server
                    .submit(server_request(workload, strategy, idx).durable(durable))
                    .map_err(|e| LoadError::Exec(e.to_string()))?;
                let actual = start.elapsed();
                let lag = (actual.as_secs_f64() - scheduled.as_secs_f64()).abs();
                lag_sum += lag;
                lag_max = lag_max.max(lag);
                if emitted == 0 {
                    first = (scheduled, actual);
                }
                last = (scheduled, actual);
                emitted += 1;
                if tx.send((idx, ticket)).is_err() {
                    break; // collector gone; stop offering load
                }
                scheduled += Duration::from_secs_f64(exp_time(&mut rng, mean).as_secs_f64());
            }
            let stats = PacerStats {
                arrivals: emitted,
                scheduled_span_secs: (last.0 - first.0).as_secs_f64(),
                actual_span_secs: (last.1 - first.1).as_secs_f64(),
                mean_abs_lag_secs: if emitted > 0 {
                    lag_sum / emitted as f64
                } else {
                    0.0
                },
                max_abs_lag_secs: lag_max,
            };
            Ok((stats, measure_t0))
        });
        // The iterator ends when the pacer drops its sender, after its
        // last submission (or on its first rejected one).
        for (idx, ticket) in rx.iter() {
            acc.settle_ticket(idx, ticket);
        }
        (pacer.join(), Instant::now())
    });
    let (pacer_stats, measure_t0) =
        paced.map_err(|_| LoadError::Exec("pacer thread panicked".into()))??;
    let wall = t0.elapsed();
    let window = last_done
        .saturating_duration_since(measure_t0)
        .as_secs_f64();
    let mut report = acc.into_report(ReportFrame {
        backend: server.name(),
        workload,
        strategy,
        submitted: total,
        window_secs: window.max(1e-9),
        wall,
        latency_unit: LatencyUnit::Millis,
    });
    report.server = Some(server_side(server, Some(pacer_stats)));
    Ok(report)
}

/// The real sharded multi-threaded [`EngineServer`], as built by the
/// caller — shard layout, durability and memoization are its builder's
/// knobs. The workload is one load source among whatever else the
/// server is doing, and its effects show up in the server's own
/// [`telemetry`](EngineServer::telemetry), stats and event streams
/// (see `examples/server_dashboard.rs`).
///
/// * [`run`](Backend::run) registers the workload's flows as `flow0`,
///   `flow1`, … — overwriting schemas previously registered under those
///   names — and every request carries the workload's strategy.
/// * Closed arrivals submit `submit_many` waves, each awaited before the
///   next; Poisson arrivals run an open pacer that submits on schedule
///   whatever the backlog, and late drops are tallied from the
///   server-side `InstanceResult::deadline_exceeded` flag (derived from
///   `Request::deadline`).
/// * On a server with an event store (`ServerBuilder::durable`) every
///   request is submitted with [`Request::durable`] — the run then
///   measures the write-ahead-logged hot path, and the `wal_*` metrics
///   ride along in the report's telemetry snapshot. With
///   `ServerBuilder::memoize` the report's
///   [`memo_hit_rate`](LoadReport::memo_hit_rate) becomes meaningful.
/// * The final [`ServerSideStats`] snapshot aggregates the server's
///   whole history, not just this workload's instances.
impl Backend for EngineServer {
    fn name(&self) -> &'static str {
        "server"
    }

    fn run(&self, workload: &Workload) -> Result<LoadReport, LoadError> {
        let Resolved { strategy, total } = workload.resolve()?;
        // The names `server_request` submits against.
        for (i, flow) in workload.flows.iter().enumerate() {
            self.register(format!("flow{i}"), Arc::clone(&flow.schema));
        }
        match workload.arrival {
            Arrival::Closed { clients, .. } => {
                run_waves_on(self, workload, strategy, total, clients, |i| {
                    server_request(workload, strategy, i)
                })
            }
            Arrival::Poisson { rate } => run_open_on(self, workload, strategy, total, rate),
            Arrival::Resubmission {
                clients,
                delta_rate,
                churn,
                ..
            } => {
                // Wave 0 seeds every client's snapshot cold; later waves
                // resubmit the same labels, each as a delta with
                // probability `delta_rate` — seeded by `Workload::seed`, so
                // two runs offer the identical request sequence.
                let mut rng = StdRng::seed_from_u64(workload.seed);
                run_waves_on(self, workload, strategy, total, clients, |i| {
                    let delta = rng.gen_bool(delta_rate);
                    let (client, wave) = (i % clients, i / clients);
                    resub_request(workload, strategy, client, wave, churn, delta)
                })
            }
        }
    }
}

//! The [`SimDb`] backend: desim plus the finite-resource simulated
//! database of §5.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use decisionflow::engine::{InstanceRuntime, Strategy};
use decisionflow::schema::AttrId;
use decisionflow::value::Value;
use desim::{exp_time, Model, Scheduler, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{DbConfig, DbEvent, QueryJob, SimDb as SimDbServer};

use super::{
    Accounting, Arrival, Backend, LatencyUnit, LoadError, LoadReport, ReportFrame, Resolved,
    SimDbStats, Workload,
};

/// The finite-resource setting of §5: every launched task becomes a
/// query on one shared simulated database ([`simdb`]), time is
/// virtual, and responses are measured in (virtual) milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimDb {
    /// Database configuration (Table 1 defaults).
    pub db: DbConfig,
}

impl SimDb {
    /// The simulated database under `db`.
    pub fn new(db: DbConfig) -> SimDb {
        SimDb { db }
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrive,
    Db(DbEvent),
}

struct InstSlot {
    rt: InstanceRuntime,
    arrived: SimTime,
    done: bool,
}

/// The desim model behind the [`SimDb`] backend: Poisson arrivals or
/// closed waves over one shared database.
struct SimDriver<'a> {
    workload: &'a Workload,
    strategy: Strategy,
    total: usize,
    db: SimDbServer,
    insts: Vec<InstSlot>,
    /// job id → (instance index, attribute, precomputed result value).
    jobs: HashMap<u64, (usize, AttrId, Value)>,
    next_job: u64,
    rng: StdRng,
    acc: Accounting,
    finished: usize,
    /// Virtual deadline budget, if the workload set one.
    budget: Option<SimTime>,
    /// Arrival time of the first measured instance (throughput window).
    measure_start: SimTime,
    /// True while a closed wave is being spawned (suppresses the
    /// next-wave trigger until the wave is fully submitted).
    spawning: bool,
}

impl SimDriver<'_> {
    fn spawn_instance(&mut self, sched: &mut Scheduler<Ev>) -> usize {
        let i = self.insts.len();
        let flow = &self.workload.flows[i % self.workload.flows.len()];
        let rt = InstanceRuntime::with_options(
            Arc::clone(&flow.schema),
            self.strategy,
            &flow.sources,
            self.workload.options,
        )
        .expect("generated flows bind all sources");
        if i == self.workload.warmup {
            self.measure_start = sched.now();
        }
        self.insts.push(InstSlot {
            rt,
            arrived: sched.now(),
            done: false,
        });
        i
    }

    /// Launch everything the scheduler allows for instance `i`;
    /// zero-cost tasks complete inline, possibly enabling more
    /// launches, so iterate to quiescence.
    fn pump(&mut self, i: usize, sched: &mut Scheduler<Ev>) {
        let mut launches = Vec::new();
        loop {
            if self.insts[i].done {
                return;
            }
            self.insts[i].rt.round(&mut launches);
            if launches.is_empty() {
                break;
            }
            let mut immediate = Vec::new();
            for (a, inputs) in launches.drain(..) {
                let schema = self.insts[i].rt.schema();
                let value = schema.attr(a).task.compute(&inputs);
                let cost = schema.cost(a);
                let id = self.next_job;
                self.next_job += 1;
                let job = QueryJob { id, cost };
                match self.db.submit(job, sched, &Ev::Db) {
                    Some(_c) => immediate.push((a, value)),
                    None => {
                        self.jobs.insert(id, (i, a, value));
                    }
                }
            }
            for (a, v) in immediate {
                self.insts[i].rt.complete(a, v);
            }
            self.check_done(i, sched);
        }
        self.check_done(i, sched);
    }

    fn check_done(&mut self, i: usize, sched: &mut Scheduler<Ev>) {
        let slot = &mut self.insts[i];
        if !slot.done && slot.rt.is_complete() {
            slot.done = true;
            let resp = sched.now().saturating_sub(slot.arrived);
            let late = self.budget.is_some_and(|b| resp > b);
            let metrics = self.insts[i].rt.metrics().clone();
            self.acc.delivered(i, late, resp.as_millis_f64(), &metrics);
            self.finished += 1;
            if self.finished == self.total {
                sched.stop();
            } else {
                self.maybe_next_wave(sched);
            }
        }
    }

    /// Closed-loop pacing: once a wave has fully drained (and been
    /// fully spawned), schedule the next one.
    fn maybe_next_wave(&mut self, sched: &mut Scheduler<Ev>) {
        if self.spawning || !matches!(self.workload.arrival, Arrival::Closed { .. }) {
            return;
        }
        if self.finished == self.insts.len() && self.insts.len() < self.total {
            sched.schedule_in(SimTime::ZERO, Ev::Arrive);
        }
    }
}

impl Model for SimDriver<'_> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Arrive => match self.workload.arrival {
                Arrival::Poisson { rate } => {
                    let i = self.spawn_instance(sched);
                    if self.insts.len() < self.total {
                        let mean = SimTime::from_secs_f64(1.0 / rate);
                        let gap = exp_time(&mut self.rng, mean);
                        sched.schedule_in(gap, Ev::Arrive);
                    }
                    self.pump(i, sched);
                }
                Arrival::Closed { clients, .. } => {
                    self.spawning = true;
                    let wave = clients.min(self.total - self.insts.len());
                    for _ in 0..wave {
                        let i = self.spawn_instance(sched);
                        self.pump(i, sched);
                    }
                    self.spawning = false;
                    self.maybe_next_wave(sched);
                }
                // invariant: SimDb::run rejects resubmission workloads
                // before the simulation is primed.
                Arrival::Resubmission { .. } => {
                    unreachable!("resubmission arrivals rejected before simulation start")
                }
            },
            Ev::Db(dbev) => {
                if let Some(c) = self.db.handle(dbev, sched, &Ev::Db) {
                    let (i, attr, value) = self
                        .jobs
                        .remove(&c.job.id)
                        .expect("completion for unknown job");
                    self.insts[i].rt.complete(attr, value);
                    self.check_done(i, sched);
                    self.pump(i, sched);
                }
            }
        }
    }
}

impl Backend for SimDb {
    fn name(&self) -> &'static str {
        "simdb"
    }

    fn run(&self, workload: &Workload) -> Result<LoadReport, LoadError> {
        let Resolved { strategy, total } = workload.resolve()?;
        if matches!(workload.arrival, Arrival::Resubmission { .. }) {
            return Err(LoadError::config(
                "resubmission arrivals need a server backend (no snapshot store here)",
            ));
        }
        let driver = SimDriver {
            workload,
            strategy,
            total,
            db: SimDbServer::new(self.db, workload.seed.wrapping_mul(0x9E37_79B9)),
            insts: Vec::with_capacity(total),
            jobs: HashMap::new(),
            next_job: 0,
            rng: StdRng::seed_from_u64(workload.seed),
            acc: Accounting::new(workload.warmup, workload.deadline.is_some()),
            finished: 0,
            budget: workload
                .deadline
                .map(|d| SimTime::from_secs_f64(d.as_secs_f64())),
            measure_start: SimTime::ZERO,
            spawning: false,
        };
        let mut sim = Simulation::new(driver);
        sim.prime(SimTime::ZERO, Ev::Arrive);
        // A stop is requested when the last instance completes;
        // Exhausted can only happen if every instance finished with no
        // events left (e.g. all targets disabled at init).
        let _ = sim.run();
        let makespan = sim.now();
        let d = sim.into_model();
        if d.finished != total {
            return Err(LoadError::Exec(format!(
                "run ended before all instances completed ({}/{total})",
                d.finished
            )));
        }
        let window = makespan.saturating_sub(d.measure_start).as_secs_f64();
        let sim_stats = SimDbStats {
            mean_gmpl: d.db.mean_gmpl(),
            mean_unit_time_ms: d.db.unit_times().mean() * 1e3,
            makespan,
        };
        let mut report = d.acc.into_report(ReportFrame {
            backend: self.name(),
            workload,
            strategy,
            submitted: total,
            window_secs: window.max(1e-9),
            wall: Duration::from_secs_f64(makespan.as_secs_f64()),
            latency_unit: LatencyUnit::Millis,
        });
        report.sim = Some(sim_stats);
        Ok(report)
    }
}

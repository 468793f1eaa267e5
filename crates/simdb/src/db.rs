//! The simulated database server.
//!
//! Queries arrive with a cost in *units of processing*. Each unit is a
//! CPU service slice followed by its page accesses; pages miss the
//! buffer pool with probability `1 − %IO_hit` and each miss costs one
//! disk service at a uniformly chosen disk. Units of one query execute
//! sequentially; concurrency comes from multiple queries in process —
//! the database's global multiprogramming level **Gmpl**.
//!
//! The model is deliberately the physical model of \[ACL87\] (service
//! queues for CPUs and disks), which is what the paper built on CSIM-18.
//!
//! `SimDb` is a *sub-model*: it does not own the event loop. Embed it in
//! any [`desim::Model`] by forwarding its [`DbEvent`]s and wrapping them
//! into the host's event alphabet.

use std::collections::HashMap;

use desim::{Scheduler, ServiceCenter, SimTime, Tally, TimeWeighted};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::DbConfig;

/// A query submitted to the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryJob {
    /// Caller-assigned identifier, echoed back on completion.
    pub id: u64,
    /// Cost in units of processing.
    pub cost: u64,
}

/// Internal events of the database model. Forward these from the host
/// model's `handle` into [`SimDb::handle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbEvent {
    /// A CPU slice finished for the given job.
    CpuDone(u64),
    /// A disk access finished for the given job.
    DiskDone {
        /// Job id.
        job: u64,
        /// Disk index the access ran on.
        disk: usize,
    },
}

/// Completion notice returned to the host model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryCompletion {
    /// The finished job.
    pub job: QueryJob,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
}

impl QueryCompletion {
    /// Response time of this query.
    pub fn response(&self) -> SimTime {
        self.completed_at.saturating_sub(self.submitted_at)
    }
}

struct JobState {
    job: QueryJob,
    remaining_units: u64,
    pending_ios: u32,
    submitted_at: SimTime,
    unit_started_at: SimTime,
}

/// The simulated database server (see module docs).
pub struct SimDb {
    cfg: DbConfig,
    cpu: ServiceCenter<u64>,
    disks: Vec<ServiceCenter<u64>>,
    jobs: HashMap<u64, JobState>,
    rng: StdRng,
    // statistics
    gmpl: TimeWeighted,
    unit_times: Tally,
    units_done: u64,
}

impl SimDb {
    /// Create a database with the given configuration and RNG seed
    /// (buffer hits and disk choice are the only stochastic elements).
    pub fn new(cfg: DbConfig, seed: u64) -> SimDb {
        cfg.validate().expect("invalid DbConfig");
        SimDb {
            cpu: ServiceCenter::new(cfg.num_cpus),
            disks: (0..cfg.num_disks).map(|_| ServiceCenter::new(1)).collect(),
            jobs: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            gmpl: TimeWeighted::new(),
            unit_times: Tally::new(),
            units_done: 0,
            cfg,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// Time-averaged global multiprogramming level.
    pub fn mean_gmpl(&self) -> f64 {
        self.gmpl.mean()
    }

    /// Statistics over unit-of-processing response times.
    pub fn unit_times(&self) -> &Tally {
        &self.unit_times
    }

    /// Units of processing completed so far.
    pub fn units_done(&self) -> u64 {
        self.units_done
    }

    /// Reset statistics windows (e.g. after warmup) without disturbing
    /// in-flight work.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.gmpl = TimeWeighted::new();
        self.gmpl.observe(now, self.jobs.len() as f64);
        self.unit_times = Tally::new();
        self.units_done = 0;
    }

    /// Submit a query. Returns the completion immediately if the query
    /// has zero cost; otherwise the job enters the CPU queue and will
    /// complete via [`DbEvent`]s.
    pub fn submit<E>(
        &mut self,
        job: QueryJob,
        sched: &mut Scheduler<E>,
        wrap: &impl Fn(DbEvent) -> E,
    ) -> Option<QueryCompletion> {
        let now = sched.now();
        if job.cost == 0 {
            return Some(QueryCompletion {
                job,
                submitted_at: now,
                completed_at: now,
            });
        }
        let prev = self.jobs.insert(
            job.id,
            JobState {
                job,
                remaining_units: job.cost,
                pending_ios: 0,
                submitted_at: now,
                unit_started_at: now,
            },
        );
        assert!(prev.is_none(), "duplicate job id {}", job.id);
        self.gmpl.observe(now, self.jobs.len() as f64);
        self.start_unit(job.id, sched, wrap);
        None
    }

    /// Process one database event; returns the completion if the event
    /// finished a query.
    pub fn handle<E>(
        &mut self,
        ev: DbEvent,
        sched: &mut Scheduler<E>,
        wrap: &impl Fn(DbEvent) -> E,
    ) -> Option<QueryCompletion> {
        match ev {
            DbEvent::CpuDone(id) => {
                // Free the CPU; if a queued job was admitted, schedule
                // its own CpuDone.
                if let Some(next) = self.cpu.complete(sched.now()) {
                    sched.schedule_at(next.completes_at, wrap(DbEvent::CpuDone(next.job)));
                }
                // Page accesses for the unit that just left the CPU.
                let misses = self.sample_misses();
                if misses == 0 {
                    self.finish_unit(id, sched, wrap)
                } else {
                    self.jobs
                        .get_mut(&id)
                        .expect("CpuDone for unknown job")
                        .pending_ios = misses;
                    self.start_io(id, sched, wrap);
                    None
                }
            }
            DbEvent::DiskDone { job: id, disk } => {
                if let Some(next) = self.disks[disk].complete(sched.now()) {
                    sched.schedule_at(
                        next.completes_at,
                        wrap(DbEvent::DiskDone {
                            job: next.job,
                            disk,
                        }),
                    );
                }
                let st = self.jobs.get_mut(&id).expect("DiskDone for unknown job");
                st.pending_ios -= 1;
                if st.pending_ios > 0 {
                    self.start_io(id, sched, wrap);
                    None
                } else {
                    self.finish_unit(id, sched, wrap)
                }
            }
        }
    }

    fn sample_service(&mut self, mean: desim::SimTime) -> desim::SimTime {
        match self.cfg.service_dist {
            crate::config::ServiceDist::Deterministic => mean,
            crate::config::ServiceDist::Exponential => desim::exp_time(&mut self.rng, mean),
        }
    }

    fn sample_misses(&mut self) -> u32 {
        let mut misses = 0;
        for _ in 0..self.cfg.unit_io_pages {
            if !desim::bernoulli(&mut self.rng, self.cfg.io_hit_prob) {
                misses += 1;
            }
        }
        misses
    }

    fn start_unit<E>(&mut self, id: u64, sched: &mut Scheduler<E>, wrap: &impl Fn(DbEvent) -> E) {
        let now = sched.now();
        let service = self.sample_service(self.cfg.cpu_service());
        let st = self.jobs.get_mut(&id).expect("start_unit for unknown job");
        st.unit_started_at = now;
        if let Some(adm) = self.cpu.submit(now, id, service) {
            sched.schedule_at(adm.completes_at, wrap(DbEvent::CpuDone(adm.job)));
        }
    }

    fn start_io<E>(&mut self, id: u64, sched: &mut Scheduler<E>, wrap: &impl Fn(DbEvent) -> E) {
        let now = sched.now();
        let disk =
            desim::uniform_inclusive(&mut self.rng, 0, self.cfg.num_disks as u64 - 1) as usize;
        let service = self.sample_service(self.cfg.io_service());
        if let Some(adm) = self.disks[disk].submit(now, id, service) {
            sched.schedule_at(
                adm.completes_at,
                wrap(DbEvent::DiskDone { job: adm.job, disk }),
            );
        }
    }

    fn finish_unit<E>(
        &mut self,
        id: u64,
        sched: &mut Scheduler<E>,
        wrap: &impl Fn(DbEvent) -> E,
    ) -> Option<QueryCompletion> {
        let now = sched.now();
        let st = self.jobs.get_mut(&id).expect("finish_unit for unknown job");
        self.units_done += 1;
        self.unit_times
            .add_time(now.saturating_sub(st.unit_started_at));
        st.remaining_units -= 1;
        if st.remaining_units > 0 {
            self.start_unit(id, sched, wrap);
            return None;
        }
        let st = self.jobs.remove(&id).expect("job vanished");
        self.gmpl.observe(now, self.jobs.len() as f64);
        let completion = QueryCompletion {
            job: st.job,
            submitted_at: st.submitted_at,
            completed_at: now,
        };
        Some(completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{Model, RunOutcome, Simulation};

    /// Host model: submits a batch of queries at t=0, collects
    /// completions, stops when all are done.
    struct Host {
        db: SimDb,
        to_submit: Vec<QueryJob>,
        completions: Vec<QueryCompletion>,
    }

    #[derive(Clone, Copy, Debug)]
    enum Ev {
        Kick,
        Db(DbEvent),
    }

    impl Model for Host {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Kick => {
                    for job in self.to_submit.drain(..) {
                        if let Some(c) = self.db.submit(job, sched, &Ev::Db) {
                            self.completions.push(c);
                        }
                    }
                }
                Ev::Db(dbev) => {
                    if let Some(c) = self.db.handle(dbev, sched, &Ev::Db) {
                        self.completions.push(c);
                    }
                }
            }
        }
    }

    fn run_batch(cfg: DbConfig, jobs: Vec<QueryJob>, seed: u64) -> (Vec<QueryCompletion>, SimDb) {
        let mut sim = Simulation::new(Host {
            db: SimDb::new(cfg, seed),
            to_submit: jobs,
            completions: vec![],
        });
        sim.prime(SimTime::ZERO, Ev::Kick);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        let host = sim.into_model();
        (host.completions, host.db)
    }

    #[test]
    fn single_query_no_contention() {
        // All pages hit (io_hit=1): a cost-3 query takes 3 CPU slices.
        let cfg = DbConfig {
            io_hit_prob: 1.0,
            service_dist: crate::config::ServiceDist::Deterministic,
            ..DbConfig::default()
        };
        let (done, db) = run_batch(cfg, vec![QueryJob { id: 1, cost: 3 }], 7);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].response(), SimTime::from_millis(30));
        assert_eq!(db.units_done(), 3);
    }

    #[test]
    fn all_misses_add_io_delay() {
        let cfg = DbConfig {
            io_hit_prob: 0.0,
            service_dist: crate::config::ServiceDist::Deterministic,
            ..DbConfig::default()
        };
        let (done, _) = run_batch(cfg, vec![QueryJob { id: 1, cost: 2 }], 7);
        // Each unit: 10ms CPU + 1 miss × 5ms IO = 15ms; two units = 30ms.
        assert_eq!(done[0].response(), SimTime::from_millis(30));
    }

    #[test]
    fn zero_cost_completes_instantly() {
        let (done, _) = run_batch(DbConfig::default(), vec![QueryJob { id: 1, cost: 0 }], 7);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].response(), SimTime::ZERO);
    }

    #[test]
    fn cpu_contention_stretches_response() {
        // 8 concurrent single-unit queries on 4 CPUs, no IO: the second
        // wave waits one full slice.
        let cfg = DbConfig {
            io_hit_prob: 1.0,
            service_dist: crate::config::ServiceDist::Deterministic,
            ..DbConfig::default()
        };
        let jobs: Vec<QueryJob> = (0..8).map(|i| QueryJob { id: i, cost: 1 }).collect();
        let (done, _) = run_batch(cfg, jobs, 7);
        assert_eq!(done.len(), 8);
        let mut responses: Vec<u64> = done
            .iter()
            .map(|c| c.response().as_millis_f64() as u64)
            .collect();
        responses.sort_unstable();
        assert_eq!(responses, vec![10, 10, 10, 10, 20, 20, 20, 20]);
    }

    #[test]
    fn gmpl_tracks_population() {
        let cfg = DbConfig {
            io_hit_prob: 1.0,
            service_dist: crate::config::ServiceDist::Deterministic,
            ..DbConfig::default()
        };
        let jobs: Vec<QueryJob> = (0..4).map(|i| QueryJob { id: i, cost: 2 }).collect();
        let (_, db) = run_batch(cfg, jobs, 7);
        // 4 queries run 0..20ms with no contention: mean Gmpl = 4.
        assert!(
            (db.mean_gmpl() - 4.0).abs() < 1e-6,
            "gmpl {}",
            db.mean_gmpl()
        );
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_rejected() {
        let cfg = DbConfig::default();
        run_batch(
            cfg,
            vec![QueryJob { id: 1, cost: 2 }, QueryJob { id: 1, cost: 2 }],
            7,
        );
    }

    #[test]
    fn unit_time_statistics_accumulate() {
        let (done, db) = run_batch(
            DbConfig::default(),
            (0..20).map(|i| QueryJob { id: i, cost: 3 }).collect(),
            42,
        );
        assert_eq!(done.len(), 20);
        assert_eq!(db.units_done(), 60);
        assert_eq!(db.unit_times().count(), 60);
        // Unit times at this load exceed the zero-load demand.
        assert!(db.unit_times().mean() * 1000.0 >= 10.0);
    }

    #[test]
    fn determinism_under_seed() {
        let jobs: Vec<QueryJob> = (0..10).map(|i| QueryJob { id: i, cost: 4 }).collect();
        let (a, _) = run_batch(DbConfig::default(), jobs.clone(), 9);
        let (b, _) = run_batch(DbConfig::default(), jobs.clone(), 9);
        let (c, _) = run_batch(DbConfig::default(), jobs, 10);
        assert_eq!(a, b, "same seed, same trajectory");
        assert_ne!(a, c, "different seed differs");
    }
}

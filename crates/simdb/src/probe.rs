//! Empirical measurement of the `Db` function (Figure 9(a)).
//!
//! `Db` maps the database's global multiprogramming level (Gmpl) to its
//! response time per *unit of processing*. The paper determines it
//! empirically for the experimental database; we do the same: for each
//! Gmpl level `N`, run a closed loop of `N` perpetual single-unit
//! queries and record the mean unit response time after warmup.

use desim::{Model, RunOutcome, Scheduler, SimTime, Simulation};

use crate::config::DbConfig;
use crate::db::{DbEvent, QueryJob, SimDb};

/// One measured point of the `Db` function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DbPoint {
    /// Global multiprogramming level during the measurement (held
    /// constant by the closed-loop probe; the time-averaged level for
    /// the open probe).
    pub gmpl: f64,
    /// Mean response time per unit of processing, in milliseconds.
    pub unit_time_ms: f64,
}

struct ClosedLoop {
    db: SimDb,
    level: u32,
    warmup_units: u64,
    measure_units: u64,
    next_id: u64,
    warmed_up: bool,
    done: bool,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Kick,
    Db(DbEvent),
}

impl Model for ClosedLoop {
    type Event = Ev;
    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Kick => {
                for _ in 0..self.level {
                    let job = QueryJob {
                        id: self.next_id,
                        cost: 1,
                    };
                    self.next_id += 1;
                    let c = self.db.submit(job, sched, &Ev::Db);
                    debug_assert!(c.is_none(), "unit queries are never free");
                }
            }
            Ev::Db(dbev) => {
                let completed = self.db.handle(dbev, sched, &Ev::Db);
                if let Some(_c) = completed {
                    if !self.warmed_up && self.db.units_done() >= self.warmup_units {
                        self.warmed_up = true;
                        self.db.reset_stats(sched.now());
                    } else if self.warmed_up && self.db.units_done() >= self.measure_units {
                        self.done = true;
                        sched.stop();
                        return;
                    }
                    // Keep the population constant: resubmit.
                    let job = QueryJob {
                        id: self.next_id,
                        cost: 1,
                    };
                    self.next_id += 1;
                    let c = self.db.submit(job, sched, &Ev::Db);
                    debug_assert!(c.is_none());
                }
            }
        }
    }
}

/// Measure one point of the `Db` function at multiprogramming level
/// `gmpl` (number of concurrent unit queries held in the system).
pub fn measure_point(cfg: DbConfig, gmpl: u32, seed: u64) -> DbPoint {
    assert!(gmpl > 0, "Gmpl must be at least 1");
    let per_level_units = 2_000u64.max(gmpl as u64 * 100);
    let mut sim = Simulation::new(ClosedLoop {
        db: SimDb::new(cfg, seed),
        level: gmpl,
        warmup_units: per_level_units / 5,
        measure_units: per_level_units,
        next_id: 0,
        warmed_up: false,
        done: false,
    });
    sim.prime(SimTime::ZERO, Ev::Kick);
    let outcome = sim.run();
    assert_eq!(outcome, RunOutcome::Stopped, "closed loop never drains");
    let model = sim.into_model();
    DbPoint {
        gmpl: gmpl as f64,
        unit_time_ms: model.db.unit_times().mean() * 1e3,
    }
}

struct OpenLoop {
    db: SimDb,
    rate_per_sec: f64,
    warmup_units: u64,
    measure_units: u64,
    next_id: u64,
    warmed_up: bool,
    rng: rand::rngs::StdRng,
}

#[derive(Clone, Copy, Debug)]
enum OpenEv {
    Arrive,
    Db(DbEvent),
}

impl Model for OpenLoop {
    type Event = OpenEv;
    fn handle(&mut self, ev: OpenEv, sched: &mut Scheduler<OpenEv>) {
        match ev {
            OpenEv::Arrive => {
                let job = QueryJob {
                    id: self.next_id,
                    cost: 1,
                };
                self.next_id += 1;
                let c = self.db.submit(job, sched, &OpenEv::Db);
                debug_assert!(c.is_none());
                let mean = SimTime::from_secs_f64(1.0 / self.rate_per_sec);
                let gap = desim::exp_time(&mut self.rng, mean);
                sched.schedule_in(gap, OpenEv::Arrive);
            }
            OpenEv::Db(dbev) => {
                if self.db.handle(dbev, sched, &OpenEv::Db).is_some() {
                    if !self.warmed_up && self.db.units_done() >= self.warmup_units {
                        self.warmed_up = true;
                        self.db.reset_stats(sched.now());
                    } else if self.warmed_up && self.db.units_done() >= self.measure_units {
                        sched.stop();
                    }
                }
            }
        }
    }
}

/// Measure one `Db` point under **open** Poisson arrivals of unit
/// queries at `rate_per_sec` units/second. The returned `gmpl` is the
/// time-averaged population, so the point is Little's-law consistent:
/// `gmpl = rate × unit_time`. Open calibration captures the queueing
/// fluctuations an open decision-flow load actually experiences, which
/// a constant-population probe understates.
fn measure_point_open(cfg: DbConfig, rate_per_sec: f64, seed: u64) -> DbPoint {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    use rand::SeedableRng;
    let units = 20_000u64;
    let mut sim = Simulation::new(OpenLoop {
        db: SimDb::new(cfg, seed),
        rate_per_sec,
        warmup_units: units / 5,
        measure_units: units,
        next_id: 0,
        warmed_up: false,
        rng: rand::rngs::StdRng::seed_from_u64(seed ^ 0x0F3A),
    });
    sim.prime(SimTime::ZERO, OpenEv::Arrive);
    let outcome = sim.run();
    assert_eq!(outcome, RunOutcome::Stopped, "open loop runs until quota");
    let model = sim.into_model();
    DbPoint {
        gmpl: model.db.mean_gmpl(),
        unit_time_ms: model.db.unit_times().mean() * 1e3,
    }
}

/// Measure the `Db` function under open Poisson unit arrivals over a
/// grid of offered loads (units/second).
pub fn measure_db_function_open(
    cfg: DbConfig,
    rates_per_sec: impl IntoIterator<Item = f64>,
    seed: u64,
) -> Vec<DbPoint> {
    rates_per_sec
        .into_iter()
        .enumerate()
        .map(|(i, r)| measure_point_open(cfg, r, seed.wrapping_add(i as u64)))
        .collect()
}

/// Measure the `Db` function over a range of Gmpl levels — the curve of
/// Figure 9(a).
pub fn measure_db_function(
    cfg: DbConfig,
    levels: impl IntoIterator<Item = u32>,
    seed: u64,
) -> Vec<DbPoint> {
    levels
        .into_iter()
        .map(|g| measure_point(cfg, g, seed.wrapping_add(g as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_matches_zero_load_demand() {
        let cfg = DbConfig::default();
        let p = measure_point(cfg, 1, 11);
        // One query alone: no queueing; unit time = 12.5ms ± stochastic
        // IO variation (hit/miss is random but mean is exact over many
        // units).
        assert!(
            (p.unit_time_ms - cfg.unit_demand_ms()).abs() < 1.5,
            "unit time {} vs demand {}",
            p.unit_time_ms,
            cfg.unit_demand_ms()
        );
    }

    #[test]
    fn db_function_is_increasing_in_load() {
        let cfg = DbConfig::default();
        let pts = measure_db_function(cfg, [1, 8, 16, 32], 3);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(
                w[1].unit_time_ms > w[0].unit_time_ms * 0.95,
                "Db must be (weakly) increasing: {:?}",
                pts
            );
        }
        // Saturated regime: 32 queries on 4 CPUs ≈ 8 slices per unit.
        let hi = pts.last().unwrap();
        assert!(
            hi.unit_time_ms > 50.0,
            "expected heavy contention at Gmpl=32, got {}",
            hi.unit_time_ms
        );
    }

    #[test]
    fn figure_9a_shape_10_to_100_ms() {
        let cfg = DbConfig::default();
        let lo = measure_point(cfg, 1, 5);
        let hi = measure_point(cfg, 35, 5);
        assert!(lo.unit_time_ms >= 10.0 && lo.unit_time_ms <= 20.0, "{lo:?}");
        assert!(
            hi.unit_time_ms >= 70.0 && hi.unit_time_ms <= 130.0,
            "{hi:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_gmpl_rejected() {
        measure_point(DbConfig::default(), 0, 1);
    }
}

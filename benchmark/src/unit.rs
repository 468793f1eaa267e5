//! `unit_grid`: in-process, single-threaded `Request::run()` under the
//! §5 unit-time model over the Figure 5–8 grid — the floor under every
//! server workload, with `server`, `journal` and `store` at zero.

use std::sync::Arc;
use std::time::Instant;

use decisionflow::prelude::*;

use crate::catalog::{ENABLED, STRATEGIES};
use crate::inputs::{grid_flows, Expect};
use crate::measure::RegionClock;
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use crate::{break_oracle, Config, Outcome, SETUP_REPS};

/// Flows per `%enabled` setting (see `inputs::grid_flows` on why a
/// population and not a handful).
pub const POPULATION: usize = 512;
/// Passes over the whole grid per chunk: every chunk runs every flow
/// under every strategy equally often, so Work per instance is the same
/// exact figure in each.
const PASSES_PER_CHUNK: usize = 8;
const WARM_UP_PASSES: usize = 2;

/// One cell-and-flow of the grid, ready to run.
pub struct GridOp {
    pub request: Request,
    /// Index into [`Grid::expects`].
    pub flow: usize,
    /// `(strategy, enabled)` indices into the catalog's lists.
    pub cell: (usize, usize),
}

pub struct Grid {
    /// Round-robin over the cells: consecutive operations differ in
    /// strategy first, then `%enabled`, then flow.
    pub ops: Vec<GridOp>,
    pub expects: Vec<Expect>,
}

impl Grid {
    pub fn build(seed: u64, population: usize) -> Grid {
        let strategies: Vec<Strategy> = STRATEGIES
            .iter()
            .map(|s| s.parse().expect("literal strategy"))
            .collect();
        let flows: Vec<_> = ENABLED
            .iter()
            .map(|&(pct, _)| grid_flows(seed, 64, pct, population))
            .collect();
        let mut expects: Vec<Expect> = flows
            .iter()
            .flatten()
            .map(|f| Expect::of(&f.schema, &f.sources))
            .collect();
        if break_oracle() {
            expects[0] = expects[0].corrupted();
        }
        let mut ops = Vec::with_capacity(population * ENABLED.len() * strategies.len());
        for i in 0..population {
            for (e, of_pct) in flows.iter().enumerate() {
                for (s, strategy) in strategies.iter().enumerate() {
                    ops.push(GridOp {
                        request: Request::with_schema(Arc::clone(&of_pct[i].schema))
                            .sources(of_pct[i].sources.clone())
                            .strategy(*strategy),
                        flow: e * population + i,
                        cell: (s, e),
                    });
                }
            }
        }
        Grid { ops, expects }
    }

    /// Run one operation; `None` when it failed or the oracle disagrees.
    pub fn run(&self, op: &GridOp) -> Option<UnitOutcome> {
        self.judge(op, op.request.run())
    }

    pub fn judge(&self, op: &GridOp, report: Result<RunReport, ExecError>) -> Option<UnitOutcome> {
        let outcome = report.ok()?.outcome;
        self.expects[op.flow]
            .matches_runtime(&outcome.runtime)
            .then_some(outcome)
    }
}

pub fn unit_grid(cfg: &Config) -> Outcome {
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let grid = Grid::build(cfg.seed, POPULATION);
        for op in grid
            .ops
            .iter()
            .cycle()
            .take(WARM_UP_PASSES * grid.ops.len())
        {
            std::hint::black_box(grid.run(op));
        }
        setups.push(t0.elapsed().as_secs_f64());
        grid
    };
    let grid = timed_setup();

    let mut tracer = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clock = RegionClock::start(cfg.seconds, cfg.trace);
    loop {
        let tracing = clock.tracing();
        for _ in 0..PASSES_PER_CHUNK {
            for op in &grid.ops {
                let t0 = Instant::now();
                let report = op.request.run();
                let t1 = Instant::now();
                let outcome = grid.judge(op, report);
                attempted += 1;
                failed += u64::from(outcome.is_none());
                clock.record(
                    Some((t1 - t0).as_secs_f64() * 1e3),
                    outcome.map_or(0, |o| o.metrics.work),
                );
                if tracing {
                    tracer.in_process(attempted, (t0, t1), Instant::now());
                }
            }
        }
        if !clock.end_chunk(Instant::now()) {
            break;
        }
    }
    let region = clock.finish();
    let rss = peak_rss_mb();
    // The other set-ups come after the region (see `closed::run_closed`).
    for _ in 1..SETUP_REPS {
        timed_setup();
    }
    let mut out = Outcome::of_region(median(&mut setups), &region, rss);
    out.attempted = attempted;
    out.failed = failed;
    if cfg.trace {
        region.driver_rows(&mut out.sheet);
        out.tracer = Some(tracer);
    }
    out
}

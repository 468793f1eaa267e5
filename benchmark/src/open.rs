//! `open_waiting`: requests arrive on a seeded schedule whether or not
//! earlier ones have finished, at two fixed rates in one run. Task
//! bodies sleep, so worker slots — not CPU — are what runs out, and the
//! queue can grow. One thread both sends and collects: it sleeps on the
//! server's event stream until the next request is due or a completion
//! arrives.
//!
//! The whole process runs on one CPU. The server's threads are awake
//! for a seventh of the time, and where the kernel puts them decides
//! what a wake-up costs: on one CPU it is a context switch, across two
//! an interrupt between them, which under a hypervisor costs half again
//! as much CPU per instance. Left to itself the kernel packs them after
//! a quiet spell and spreads them after a busy one, and holds to its
//! choice for a whole run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use decisionflow::prelude::*;

use crate::closed::{check_accounting, us, ClosedLoop, FlowOps, OpSource, ServerSamples};
use crate::inputs::{arrival_offsets, grid_flows, Rng};
use crate::stats::{median, p50_p99, peak_rss_mb, pin_to_one_cpu, process_cpu_ns, thread_cpu_ns};
use crate::trace::Tracer;
use crate::{Config, Outcome, SETUP_REPS};

/// Flows registered (see `inputs::grid_flows` on why a population).
const POPULATION: usize = 512;
/// Two per shard put the 300/s step at two thirds of the worker slots,
/// on the knee, where p99 swings by a fifth from one seeded schedule to
/// the next; three put it under a half, where it holds still.
const WORKERS_PER_SHARD: usize = 3;
const UNIT_DELAY: Duration = Duration::from_micros(100);
/// The latency limit: a result later than this counts as failed.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);
/// Requests per second of the two steps.
const RATES: [f64; 2] = [150.0, 300.0];
/// Share of `--seconds` each step lasts. End-to-end latency and
/// throughput are those of the second step.
const STEP_SHARE: [f64; 2] = [0.2, 0.8];
const WARM_UP: usize = 256;
/// The step's p99 is set by the two or three worst bursts of its seeded
/// schedule and moves by a sixth from seed to seed; the median of eight
/// slices' p99s (360 samples each at the default length) by a tenth.
const LATENCY_CHUNKS: usize = 8;

/// One scheduled request: when it is due, measured from the start of
/// the region, and which step it belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub step: usize,
}

/// The seeded schedule: each step's arrivals are a Poisson process
/// conditioned on its count, so the offered rate is exactly `RATES`
/// whatever the seed.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x09E7);
    let mut out = Vec::new();
    let mut start = 0.0;
    for step in 0..RATES.len() {
        let window = seconds * STEP_SHARE[step];
        let n = (RATES[step] * window).round() as usize;
        out.extend(
            arrival_offsets(&mut rng, n, window)
                .into_iter()
                .map(|at| Arrival {
                    due_s: start + at,
                    step,
                }),
        );
        start += window;
    }
    out
}

/// What became of one scheduled request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fate {
    /// How late the generator sent it.
    pub lag_ms: f64,
    /// Due → result in hand; `None` while outstanding, or lost.
    pub latency_ms: Option<f64>,
    /// Requests outstanding right after this one was sent.
    pub in_flight: usize,
    pub work: u64,
    pub failed: bool,
}

struct Sent {
    index: usize,
    key: u32,
    submit: (Instant, Instant),
    ticket: Ticket,
}

/// Per-step figures of the caller's view.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStats {
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Median of the p50s of `LATENCY_CHUNKS` equal consecutive slices.
    pub chunked_p50_ms: f64,
    /// Median of their p99s.
    pub chunked_p99_ms: f64,
    /// Mean in-flight over the last quarter ÷ over the first quarter.
    pub backlog_growth: f64,
}

pub fn step_stats(fates: &[Fate]) -> StepStats {
    let mut all: Vec<f64> = fates.iter().filter_map(|f| f.latency_ms).collect();
    let (p50_ms, p99_ms) = p50_p99(&mut all);
    let (mut chunk_p50s, mut chunk_p99s): (Vec<f64>, Vec<f64>) = fates
        .chunks(fates.len().div_ceil(LATENCY_CHUNKS).max(1))
        .map(|c| {
            let mut v: Vec<f64> = c.iter().filter_map(|f| f.latency_ms).collect();
            p50_p99(&mut v)
        })
        .unzip();
    let quarter = (fates.len() / 4).max(1);
    let mean_in_flight = |part: &[Fate]| {
        part.iter().map(|f| f.in_flight as f64).sum::<f64>() / part.len().max(1) as f64
    };
    let first = mean_in_flight(&fates[..quarter.min(fates.len())]);
    let last = mean_in_flight(&fates[fates.len().saturating_sub(quarter)..]);
    StepStats {
        p50_ms,
        p99_ms,
        chunked_p50_ms: median(&mut chunk_p50s),
        chunked_p99_ms: median(&mut chunk_p99s),
        backlog_growth: if first > 0.0 { last / first } else { 0.0 },
    }
}

pub fn open_waiting(cfg: &Config) -> Outcome {
    // Before the server starts its threads, which inherit the choice.
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("open_waiting: running on cpu {cpu} only"),
        None => eprintln!("open_waiting: cannot set the CPU affinity; running unpinned"),
    }
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let flows = grid_flows(cfg.seed, 32, 75, POPULATION);
        let server = EngineServer::builder()
            .shards(2)
            .workers_per_shard(WORKERS_PER_SHARD)
            .strategy("PSE100".parse().expect("literal strategy"))
            .event_capacity(1 << 14)
            .build()
            .expect("volatile server builds");
        let mut ops = FlowOps::register(
            &server,
            &flows,
            |f| f.with_unit_delay(UNIT_DELAY).schema,
            &mut Rng::new(cfg.seed, 0x09E2),
            |r| r.deadline(LATENCY_LIMIT),
        );
        let mut lp = ClosedLoop::new(0);
        lp.warm_up(&server, &mut ops, WARM_UP);
        lp.drain(&mut ops);
        setups.push(t0.elapsed().as_secs_f64());
        (server, ops, lp.accepted)
    };
    let (server, mut ops, mut accepted) = timed_setup();

    let plan = schedule(cfg.seed, cfg.seconds);
    let first_hi = plan.iter().position(|a| a.step == 1).unwrap_or(plan.len());
    let mut fates = vec![Fate::default(); plan.len()];
    let mut pending: HashMap<u64, Sent> = HashMap::new();
    let mut tracer = Tracer::new();
    let mut samples = ServerSamples::default();
    let events = server.subscribe();
    let origin = Instant::now();
    let due = |i: usize| origin + Duration::from_secs_f64(plan[i].due_s);
    let (cpu0, driver_cpu0) = (process_cpu_ns(), thread_cpu_ns());
    let mut last_seen = origin;
    let mut next = 0;
    loop {
        let now = Instant::now();
        let wait = if next < plan.len() {
            if now >= due(next) {
                let (request, key) = ops.next();
                fates[next].lag_ms = us(due(next), now) / 1e3;
                match server.submit(request) {
                    Ok(ticket) => {
                        accepted += 1;
                        let sent = Sent {
                            index: next,
                            key,
                            submit: (now, Instant::now()),
                            ticket,
                        };
                        pending.insert(sent.ticket.instance_id(), sent);
                    }
                    Err(_) => fates[next].failed = true,
                }
                fates[next].in_flight = pending.len();
                next += 1;
                continue;
            }
            due(next) - now
        } else if pending.is_empty() {
            break;
        } else {
            LATENCY_LIMIT
        };
        let event = match events.recv_timeout(wait) {
            Ok(Some(event)) => event,
            // Nothing for a whole latency limit after the last send:
            // what is still outstanding is lost.
            Ok(None) if next == plan.len() => break,
            Ok(None) => continue,
            Err(ServerGone) => break,
        };
        let InstanceEvent::Completed { instance_id, .. } = event else {
            continue;
        };
        let Some(sent) = pending.remove(&instance_id) else {
            continue;
        };
        let result = sent.ticket.wait();
        let seen = Instant::now();
        last_seen = seen;
        let fate = &mut fates[sent.index];
        let latency_ms = us(due(sent.index), seen) / 1e3;
        fate.latency_ms = Some(latency_ms);
        match result {
            Ok(result) => {
                fate.work = result.record.metrics.work;
                fate.failed = result.deadline_exceeded
                    || latency_ms > LATENCY_LIMIT.as_secs_f64() * 1e3
                    || !ops.check(sent.key, &result);
                if cfg.trace && plan[sent.index].step == 1 {
                    let stages = result.stage_timings.as_ref();
                    tracer.server_request(instance_id, sent.submit, (sent.submit.1, seen), stages);
                    samples.note(sent.submit, (sent.submit.1, seen), stages);
                }
            }
            Err(ServerGone) => fate.failed = true,
        }
        if cfg.trace {
            samples.max_queue_depth = samples
                .max_queue_depth
                .max(server.stats().max_queue_depth());
        }
    }
    let cpu_ns = process_cpu_ns() - cpu0;
    let driver_cpu_ns = thread_cpu_ns() - driver_cpu0;
    for sent in pending.into_values() {
        fates[sent.index].failed = true;
    }
    let rss = peak_rss_mb();
    // The other set-ups come after the region (see `closed::run_closed`).
    for _ in 1..SETUP_REPS {
        timed_setup();
    }

    let (lo, hi) = fates.split_at(first_hi);
    let (lo_stats, hi_stats) = (step_stats(lo), step_stats(hi));
    let done = |step: &[Fate]| {
        step.iter()
            .filter(|f| f.latency_ms.is_some())
            .count()
            .max(1) as f64
    };
    let (all_done, hi_done) = (done(&fates), done(hi));
    let hi_wall_s = last_seen
        .saturating_duration_since(due(first_hi.min(plan.len() - 1)))
        .as_secs_f64();
    let failed = fates.iter().filter(|f| f.failed).count() as u64;
    let mut out = Outcome {
        setup_s: median(&mut setups),
        throughput_ips: hi_done / hi_wall_s,
        latency_p50_ms: hi_stats.chunked_p50_ms,
        latency_p99_ms: hi_stats.chunked_p99_ms,
        cpu_us_per_instance: cpu_ns as f64 / 1e3 / all_done,
        work_units_per_instance: fates.iter().map(|f| f.work).sum::<u64>() as f64 / all_done,
        peak_rss_mb: rss,
        attempted: plan.len() as u64,
        failed,
        violations: Vec::new(),
        wall_s: last_seen.saturating_duration_since(origin).as_secs_f64(),
        sheet: Default::default(),
        tracer: None,
    };
    if events.dropped() > 0 {
        out.violations.push(format!(
            "{} completion events were dropped by the subscription",
            events.dropped()
        ));
    }
    check_accounting(&server, accepted, &mut out.violations);
    if cfg.trace {
        samples.into_sheet(&mut out.sheet);
        let mut lags: Vec<f64> = fates.iter().map(|f| f.lag_ms).collect();
        let sheet = &mut out.sheet;
        sheet.set("driver.sched_lag_ms_p99", p50_p99(&mut lags).1);
        sheet.set(
            "driver.offered_ips",
            hi.len() as f64 / (cfg.seconds * STEP_SHARE[1]),
        );
        sheet.set("driver.open_lo_p50_ms", lo_stats.p50_ms);
        sheet.set("driver.open_lo_p99_ms", lo_stats.p99_ms);
        sheet.set("driver.backlog_growth", hi_stats.backlog_growth);
        sheet.set(
            "driver.late_share",
            failed as f64 / plan.len().max(1) as f64,
        );
        sheet.set(
            "driver.cpu_us_per_instance",
            driver_cpu_ns as f64 / 1e3 / all_done,
        );
        out.tracer = Some(tracer);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_and_offers_exactly_the_rates() {
        let a = schedule(5, 10.0);
        assert_eq!(a, schedule(5, 10.0));
        assert_ne!(a, schedule(6, 10.0));
        let lo = a.iter().filter(|x| x.step == 0).count();
        assert_eq!((lo, a.len() - lo), (300, 2400));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // The second step starts where the first one's window ends.
        assert!(a[lo - 1].due_s < 2.0 && a[lo].due_s >= 2.0 && a[a.len() - 1].due_s < 10.0);
    }

    #[test]
    fn latency_counts_from_the_due_time_and_backlog_compares_quarters() {
        // Sixteen requests; the generator stalled on the ninth, which
        // the later ones pay for because their clocks started when due.
        let fates: Vec<Fate> = [
            (1.0, 1),
            (1.0, 1),
            (1.0, 1),
            (2.0, 1),
            (1.0, 2),
            (2.0, 2),
            (1.0, 2),
            (2.0, 2),
            (9.0, 3),
            (8.0, 3),
            (7.0, 4),
            (6.0, 4),
            (5.0, 4),
            (4.0, 4),
            (3.0, 4),
            (2.0, 4),
        ]
        .iter()
        .map(|&(latency, in_flight)| Fate {
            latency_ms: Some(latency),
            in_flight,
            ..Default::default()
        })
        .collect();
        let s = step_stats(&fates);
        assert_eq!((s.p50_ms, s.p99_ms), (2.0, 9.0));
        // Slices of two: p50s 1, 1, 1, 1, 8, 6, 4, 2 and p99s 1, 2, 2,
        // 2, 9, 7, 5, 3 — one burst moves neither median far.
        assert_eq!((s.chunked_p50_ms, s.chunked_p99_ms), (1.5, 2.5));
        assert_eq!(s.backlog_growth, 4.0);
        // A lost request has no latency and drops out of the percentiles.
        let mut lost = fates.clone();
        lost[8].latency_ms = None;
        assert_eq!(step_stats(&lost).p99_ms, 8.0);
        assert_eq!(step_stats(&[]), StepStats::default());
    }
}

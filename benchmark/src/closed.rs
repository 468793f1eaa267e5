//! The three closed-loop server workloads: one load-generating thread
//! keeps 16 tickets outstanding — wait on the oldest, check it, submit
//! one more.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use decisionflow::prelude::*;
use decisionflow::store;

use crate::catalog::Sheet;
use crate::inputs::{
    armed_flow, grid_flows, ArmValues, Binding, DeltaOp, DeltaStream, Expect, Rng,
};
use crate::measure::RegionClock;
use crate::stats::{p50_p99, peak_rss_mb};
use crate::trace::Tracer;
use crate::{break_oracle, Config, Outcome};

const OUTSTANDING: usize = 16;
/// Flows per generated population (see `inputs::grid_flows`). Chunk
/// sizes are multiples of it, so every chunk runs the same mix.
pub const POPULATION: usize = 1024;
const SHARDS: usize = 2;

/// Where a closed loop's requests come from and how results are judged.
pub trait OpSource {
    /// The next request, and the key its result is checked under.
    fn next(&mut self) -> (Request, u32);
    /// Does `result` carry what the oracle mandates for `key`? A source
    /// whose oracle is too dear to run beside the server notes the
    /// result, answers `true`, and owns up in [`settle`](Self::settle).
    fn check(&mut self, key: u32, result: &InstanceResult) -> bool;
    /// Run the deferred checks and forget what they needed; the number
    /// that failed. Called between chunks, with the clock stopped.
    fn settle(&mut self) -> u64 {
        0
    }
}

struct InFlight {
    ticket: Ticket,
    key: u32,
    submit: (Instant, Instant),
}

/// Per-call and per-stage samples of the traced chunks.
#[derive(Default)]
pub struct ServerSamples {
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
    route_us: Vec<f64>,
    validate_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    execute_us: Vec<f64>,
    e2e_us: Vec<f64>,
    pub max_queue_depth: usize,
}

pub fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

impl ServerSamples {
    pub fn note(
        &mut self,
        submit: (Instant, Instant),
        wait: (Instant, Instant),
        stages: Option<&StageTimings>,
    ) {
        self.submit_us.push(us(submit.0, submit.1));
        self.wait_us.push(us(wait.0, wait.1));
        if let Some(t) = stages {
            self.route_us.push(t.route_ns as f64 / 1e3);
            self.validate_us.push(t.validate_ns as f64 / 1e3);
            self.queue_wait_us.push(t.queue_wait_ns as f64 / 1e3);
            self.execute_us.push(t.execute_ns as f64 / 1e3);
            self.e2e_us.push(t.e2e_ns as f64 / 1e3);
        }
    }

    pub fn into_sheet(mut self, sheet: &mut Sheet) {
        let (submit50, submit99) = p50_p99(&mut self.submit_us);
        let (queue50, queue99) = p50_p99(&mut self.queue_wait_us);
        let (exec50, exec99) = p50_p99(&mut self.execute_us);
        sheet.set("server.submit_us_p50", submit50);
        sheet.set("server.submit_us_p99", submit99);
        sheet.set("server.wait_us_p50", p50_p99(&mut self.wait_us).0);
        sheet.set("server.route_us_p50", p50_p99(&mut self.route_us).0);
        sheet.set("server.validate_us_p50", p50_p99(&mut self.validate_us).0);
        sheet.set("server.queue_wait_us_p50", queue50);
        sheet.set("server.queue_wait_us_p99", queue99);
        sheet.set("server.execute_us_p50", exec50);
        sheet.set("server.execute_us_p99", exec99);
        sheet.set("server.e2e_us_p50", p50_p99(&mut self.e2e_us).0);
        sheet.set("server.max_queue_depth", self.max_queue_depth as f64);
    }
}

/// What one retired request looked like to the caller.
struct Retired {
    latency_ms: f64,
    work: u64,
}

/// The window and counters of one closed loop over one server's
/// lifetime.
pub struct ClosedLoop {
    window: VecDeque<InFlight>,
    /// Requests the server accepted, warm-up included.
    pub accepted: u64,
    /// Operations attempted and failed while `judging`.
    pub attempted: u64,
    pub failed: u64,
    judging: bool,
}

impl ClosedLoop {
    /// A loop on a server that has already accepted `accepted` requests.
    pub fn new(accepted: u64) -> ClosedLoop {
        ClosedLoop {
            window: VecDeque::with_capacity(OUTSTANDING),
            accepted,
            attempted: 0,
            failed: 0,
            judging: false,
        }
    }

    fn submit(&mut self, server: &EngineServer, ops: &mut dyn OpSource) {
        let (request, key) = ops.next();
        self.attempted += u64::from(self.judging);
        let t0 = Instant::now();
        match server.submit(request) {
            Ok(ticket) => {
                self.accepted += 1;
                self.window.push_back(InFlight {
                    ticket,
                    key,
                    submit: (t0, Instant::now()),
                });
            }
            Err(_) => self.failed += u64::from(self.judging),
        }
    }

    /// Wait on the oldest outstanding request and judge its result.
    fn retire(
        &mut self,
        ops: &mut dyn OpSource,
        traced: Option<(&mut Tracer, &mut ServerSamples)>,
    ) -> Option<Retired> {
        let oldest = self.window.pop_front()?;
        let w0 = Instant::now();
        let result = oldest.ticket.wait();
        let w1 = Instant::now();
        let latency_ms = us(oldest.submit.0, w1) / 1e3;
        let Ok(result) = result else {
            self.failed += u64::from(self.judging);
            return Some(Retired {
                latency_ms,
                work: 0,
            });
        };
        if self.judging && !ops.check(oldest.key, &result) {
            self.failed += 1;
        }
        if let Some((tracer, samples)) = traced {
            let stages = result.stage_timings.as_ref();
            tracer.server_request(result.instance_id, oldest.submit, (w0, w1), stages);
            samples.note(oldest.submit, (w0, w1), stages);
        }
        Some(Retired {
            latency_ms,
            work: result.record.metrics.work,
        })
    }

    /// Fill the window, then retire-and-replace `n` requests unjudged.
    pub fn warm_up(&mut self, server: &EngineServer, ops: &mut dyn OpSource, n: usize) {
        while self.window.len() < OUTSTANDING {
            self.submit(server, ops);
        }
        for _ in 0..n {
            self.retire(ops, None);
            self.submit(server, ops);
        }
    }

    /// Retire everything outstanding without replacing it.
    pub fn drain(&mut self, ops: &mut dyn OpSource) {
        while self.retire(ops, None).is_some() {}
    }

    /// The measured region: chunks of `chunk_ops` retirements until
    /// `seconds` are up, every request judged; then the window drains
    /// (judged too, outside the chunk timings).
    pub fn measure(
        &mut self,
        server: &EngineServer,
        ops: &mut dyn OpSource,
        chunk_ops: usize,
        seconds: f64,
        trace: Option<(&mut Tracer, &mut ServerSamples)>,
    ) -> crate::measure::Region {
        self.judging = true;
        // Requests already in the window were submitted unjudged.
        self.attempted += self.window.len() as u64;
        let mut trace = trace;
        let mut clock = RegionClock::start(seconds, trace.is_some());
        // Requests sent before the clock stopped between two chunks waited
        // through the stop: they count as operations, not as latencies.
        let mut stale = 0;
        'region: loop {
            let tracing = clock.tracing();
            for _ in 0..chunk_ops {
                let traced = match (&mut trace, tracing) {
                    (Some((t, s)), true) => Some((&mut **t, &mut **s)),
                    _ => None,
                };
                match self.retire(ops, traced) {
                    Some(r) if stale > 0 => {
                        stale -= 1;
                        clock.record(None, r.work);
                    }
                    Some(r) => clock.record(Some(r.latency_ms), r.work),
                    // Every submit was refused and nothing is left to
                    // wait for: the failures are counted, stop here.
                    None if self.failed > 0 => break 'region,
                    None => {}
                }
                self.submit(server, ops);
            }
            if let Some((_, samples)) = &mut trace {
                samples.max_queue_depth = samples
                    .max_queue_depth
                    .max(server.stats().max_queue_depth());
            }
            let more = clock.end_chunk(Instant::now());
            self.failed += ops.settle();
            if !more {
                break;
            }
            stale = self.window.len();
            clock.resume();
        }
        self.drain(ops);
        self.failed += ops.settle();
        self.judging = false;
        clock.finish()
    }
}

/// `submitted == completed + abandoned`, nothing in flight, nothing
/// abandoned, and the server's count equal to the loop's own.
pub fn check_accounting(server: &EngineServer, accepted: u64, violations: &mut Vec<String>) {
    let stats = server.stats();
    if !stats.accounts_exactly()
        || stats.in_flight() != 0
        || stats.abandoned() != 0
        || stats.submitted() != accepted
    {
        violations.push(format!(
            "accounting: submitted {} completed {} abandoned {} in flight {} against {accepted} accepted",
            stats.submitted(),
            stats.completed(),
            stats.abandoned(),
            stats.in_flight()
        ));
    }
}

fn shard_skew(server: &EngineServer) -> f64 {
    let done: Vec<u64> = server.stats().shards.iter().map(|s| s.completed).collect();
    let (min, max) = (
        done.iter().min().copied().unwrap_or(0),
        done.iter().max().copied().unwrap_or(0),
    );
    max as f64 / min.max(1) as f64
}

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

// ---------------------------------------------------------------------
// cpu_closed / durable_closed: generated flows, round-robin
// ---------------------------------------------------------------------

/// One prepared request per registered flow, issued in a seeded order.
pub struct FlowOps {
    requests: Vec<Request>,
    expects: Vec<Expect>,
    order: Vec<u32>,
    pos: usize,
}

impl FlowOps {
    /// Register `served(flow)` on `server` as `f0`, `f1`, … and prepare
    /// the requests and what the oracle expects of them. Expectations
    /// come from the flow as generated: a served schema may differ in
    /// how long its task bodies take, never in what they compute.
    pub fn register(
        server: &EngineServer,
        flows: &[dflowgen::GeneratedFlow],
        served: impl Fn(&dflowgen::GeneratedFlow) -> Arc<Schema>,
        rng: &mut Rng,
        shape: impl Fn(Request) -> Request,
    ) -> FlowOps {
        let mut requests = Vec::with_capacity(flows.len());
        let mut expects = Vec::with_capacity(flows.len());
        for (i, flow) in flows.iter().enumerate() {
            let name = format!("f{i}");
            server.register(name.as_str(), served(flow));
            requests.push(shape(Request::named(name).sources(flow.sources.clone())));
            expects.push(Expect::of(&flow.schema, &flow.sources));
        }
        if break_oracle() {
            expects[0] = expects[0].corrupted();
        }
        FlowOps {
            requests,
            expects,
            order: rng.permutation(flows.len()),
            pos: 0,
        }
    }
}

impl OpSource for FlowOps {
    fn next(&mut self) -> (Request, u32) {
        let flow = self.order[self.pos % self.order.len()];
        self.pos += 1;
        (self.requests[flow as usize].clone(), flow)
    }

    fn check(&mut self, key: u32, result: &InstanceResult) -> bool {
        self.expects[key as usize].matches_record(&result.record)
    }
}

/// A closed-loop workload's fixed shape.
struct Shape {
    warm_up: usize,
    chunk_ops: usize,
    seconds: f64,
}

/// Set up from nothing, warm-up included, measure, and hand everything
/// back for the workload's own post-mortem. `setup` also says how many
/// requests it submitted itself. `setup_s` is the median over the
/// measured set-up and `SETUP_REPS - 1` more, made after the region:
/// for a second or two after an idle stretch this host runs a process's
/// threads at half speed, and set-ups timed only before the region
/// would report what the machine did before the process started.
fn run_closed<S: OpSource>(
    cfg: &Config,
    shape: Shape,
    mut setup: impl FnMut(usize) -> (EngineServer, S, u64),
) -> (Outcome, EngineServer, S) {
    let mut setups = Vec::new();
    let mut timed_setup = |rep: usize| {
        let t0 = Instant::now();
        let (server, mut ops, seeded) = setup(rep);
        let mut lp = ClosedLoop::new(seeded);
        lp.warm_up(&server, &mut ops, shape.warm_up);
        setups.push(t0.elapsed().as_secs_f64());
        (server, ops, lp)
    };
    // The measured loop's window stays full into the region.
    let (server, mut ops, mut lp) = timed_setup(0);

    let mut tracer = Tracer::new();
    let mut samples = ServerSamples::default();
    let trace = cfg.trace.then_some((&mut tracer, &mut samples));
    let region = lp.measure(&server, &mut ops, shape.chunk_ops, shape.seconds, trace);
    let rss = peak_rss_mb();
    for rep in 1..crate::SETUP_REPS {
        let (_server, mut ops, mut lp) = timed_setup(rep);
        lp.drain(&mut ops);
    }

    let mut out = Outcome::of_region(crate::stats::median(&mut setups), &region, rss);
    out.attempted = lp.attempted;
    out.failed = lp.failed;
    check_accounting(&server, lp.accepted, &mut out.violations);
    if cfg.trace {
        samples.into_sheet(&mut out.sheet);
        out.sheet.set("server.shard_skew", shard_skew(&server));
        region.driver_rows(&mut out.sheet);
        out.tracer = Some(tracer);
    }
    (out, server, ops)
}

fn as_generated(flow: &dflowgen::GeneratedFlow) -> Arc<Schema> {
    Arc::clone(&flow.schema)
}

fn pse100() -> Strategy {
    "PSE100".parse().expect("literal strategy")
}

fn volatile_server(strategy: Strategy, memoize: Option<usize>) -> EngineServer {
    let mut b = EngineServer::builder()
        .shards(SHARDS)
        .workers_per_shard(1)
        .strategy(strategy);
    if let Some(capacity) = memoize {
        b = b.memoize(capacity);
    }
    b.build().expect("volatile server builds")
}

pub fn cpu_closed(cfg: &Config) -> Outcome {
    let shape = Shape {
        warm_up: 2 * POPULATION,
        chunk_ops: 4 * POPULATION,
        seconds: cfg.seconds,
    };
    let (out, _server, _ops) = run_closed(cfg, shape, |_| {
        let flows = grid_flows(cfg.seed, 64, 75, POPULATION);
        let server = volatile_server(pse100(), None);
        let ops = FlowOps::register(
            &server,
            &flows,
            as_generated,
            &mut Rng::new(cfg.seed, 0xC105ED),
            |r| r,
        );
        (server, ops, 0)
    });
    out
}

fn wal_dir(cfg: &Config, rep: usize) -> PathBuf {
    cfg.out.join(format!("wal-durable_closed-{rep}"))
}

pub fn durable_closed(cfg: &Config) -> Outcome {
    // Reading the log back costs about as much time as writing it, so
    // the write phase takes half of --seconds and the read phase the
    // rest.
    let shape = Shape {
        warm_up: POPULATION / 2,
        chunk_ops: POPULATION,
        seconds: cfg.seconds / 2.0,
    };
    let (mut out, server, _ops) = run_closed(cfg, shape, |rep| {
        let dir = wal_dir(cfg, rep);
        let _ = std::fs::remove_dir_all(&dir);
        let flows = grid_flows(cfg.seed, 64, 75, POPULATION);
        let server = EngineServer::builder()
            .shards(SHARDS)
            .workers_per_shard(1)
            .strategy(pse100())
            .durable(&dir)
            .build()
            .expect("durable server opens a fresh directory");
        let ops = FlowOps::register(
            &server,
            &flows,
            as_generated,
            &mut Rng::new(cfg.seed, 0xD07AB1E),
            |r| r.durable(true),
        );
        (server, ops, 0)
    });
    let completed = server.stats().completed();
    if cfg.trace {
        let t = server.telemetry().snapshot();
        let counter = |name| t.counter(name).unwrap_or(0);
        out.sheet.set(
            "store.wal_bytes_per_instance",
            counter("wal_bytes") as f64 / completed.max(1) as f64,
        );
        out.sheet.set(
            "store.frames_per_fsync",
            counter("wal_appends") as f64 / counter("wal_fsyncs").max(1) as f64,
        );
        out.sheet
            .set("store.append_errors", counter("wal_append_errors") as f64);
    }
    drop(server);
    read_back(&wal_dir(cfg, 0), completed, cfg, &mut out);
    for rep in 0..crate::SETUP_REPS {
        let _ = std::fs::remove_dir_all(wal_dir(cfg, rep));
    }
    out
}

/// The read phase of `durable_closed`: the same `store` / `journal`
/// code the other way round. Untraced runs stop after `fsck`, which is
/// the correctness gate; traced runs also reopen the store, rebuild
/// one seeded instance's journal from the log and replay it.
fn read_back(dir: &Path, completed: u64, cfg: &Config, out: &mut Outcome) {
    let t0 = Instant::now();
    match store::fsck(dir) {
        Ok(report) => {
            if !report.ok() || report.sealed != completed || report.pending != 0 {
                out.violations.push(format!(
                    "fsck: ok={} sealed={} pending={} against {completed} completed",
                    report.ok(),
                    report.sealed,
                    report.pending
                ));
            }
        }
        Err(e) => out.violations.push(format!("fsck: {e}")),
    }
    if !cfg.trace {
        return;
    }
    out.sheet.set("store.fsck_s", t0.elapsed().as_secs_f64());
    let wal_mb = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|f| f.metadata().ok())
                .map(|m| m.len())
                .sum::<u64>()
        })
        .unwrap_or(0) as f64
        / 1e6;
    let t0 = Instant::now();
    let reopened = match EventStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            out.violations.push(format!("reopen: {e}"));
            return;
        }
    };
    let reopen_s = t0.elapsed().as_secs_f64();
    out.sheet.set("store.reopen_s", reopen_s);
    out.sheet.set("store.reopen_mb_per_s", wal_mb / reopen_s);
    let sealed = &reopened.recovered().sealed;
    out.sheet.set("store.recovered_sealed", sealed.len() as f64);
    if sealed.len() as u64 != completed || !reopened.recovered().pending.is_empty() {
        out.violations.push(format!(
            "reopen: {} sealed against {completed} completed",
            sealed.len()
        ));
        return;
    }
    // Each fetch scans the whole log, so one seeded instance stands for
    // the rest.
    let pick = &sealed[Rng::new(cfg.seed, 0xFE7C).below(sealed.len())];
    let index: usize = pick.schema[1..]
        .parse()
        .expect("flows are registered as f<index>");
    let schema = Arc::clone(&grid_flows(cfg.seed, 64, 75, POPULATION)[index].schema);
    let t0 = Instant::now();
    let replayed = reopened
        .fetch_journal(pick.instance_id)
        .map_err(|e| e.to_string())
        .and_then(|j| ReplayEngine::new(schema, j).map_err(|d| d.to_string()))
        .and_then(|engine| engine.replay().map(drop).map_err(|d| d.to_string()));
    out.sheet
        .set("store.fetch_journal_us", t0.elapsed().as_secs_f64() * 1e6);
    if let Err(e) = replayed {
        out.violations.push(format!(
            "replay of instance {} from the log: {e}",
            pick.instance_id
        ));
    }
}

// ---------------------------------------------------------------------
// delta_mixed: one many-input flow, mostly delta resubmissions
// ---------------------------------------------------------------------

pub struct DeltaOps {
    stream: DeltaStream,
    values: ArmValues,
    schema: Arc<Schema>,
    target: AttrId,
    /// Binding of every request issued since the last `settle`, by key
    /// less `settled`.
    issued: Vec<Binding>,
    settled: u32,
    /// `(key, target state, target value)` of every result judged since;
    /// computing 16-source expectations as results arrive would bill
    /// the oracle to the server.
    judged: Vec<(u32, AttrState, Option<Value>)>,
    /// Has `DFBENCH_BREAK_ORACLE` had its one wrong expectation yet?
    broken: bool,
}

const ARMED: &str = "armed";

impl DeltaOps {
    fn request(&mut self, op: DeltaOp) -> (Request, u32) {
        let key = self.settled + self.issued.len() as u32;
        self.issued.push(op.binding);
        let request = Request::named(ARMED)
            .sources(self.values.sources(&op.binding))
            .label(op.label);
        (
            if op.delta {
                request.delta_by_label()
            } else {
                request
            },
            key,
        )
    }
}

impl OpSource for DeltaOps {
    fn next(&mut self) -> (Request, u32) {
        let op = self.stream.next().expect("the stream is endless");
        self.request(op)
    }

    fn check(&mut self, key: u32, result: &InstanceResult) -> bool {
        let out = &result.record.attrs[self.target.index()];
        self.judged.push((key, out.state, out.value.clone()));
        true
    }

    fn settle(&mut self) -> u64 {
        let Some(&(newest, _, _)) = self.judged.last() else {
            return 0;
        };
        let mut failures = 0;
        for (key, state, value) in self.judged.drain(..) {
            let mut expect = Expect::of(
                &self.schema,
                &self
                    .values
                    .sources(&self.issued[(key - self.settled) as usize]),
            );
            if break_oracle() && !std::mem::replace(&mut self.broken, true) {
                expect = expect.corrupted();
            }
            failures += u64::from(!expect.matches_with(|_| (state, value.clone())));
        }
        // Results come back oldest first: everything up to the newest one
        // judged is done with, what was issued after it is still out.
        let done = newest + 1 - self.settled;
        self.issued.drain(..done as usize);
        self.settled += done;
        failures
    }
}

pub fn delta_mixed(cfg: &Config) -> Outcome {
    // Multiples of five, so every chunk holds exactly one cold
    // submission in five and Work repeats to the last digit.
    let shape = Shape {
        warm_up: 12_000,
        chunk_ops: 8_000,
        seconds: cfg.seconds,
    };
    let (mut out, server, _ops) = run_closed(cfg, shape, |_| {
        let schema = armed_flow();
        let server = volatile_server("PCE100".parse().expect("literal strategy"), Some(4096));
        server.register(ARMED, Arc::clone(&schema));
        let mut ops = DeltaOps {
            stream: DeltaStream::new(cfg.seed),
            values: ArmValues::new(&schema, cfg.seed),
            target: schema.targets()[0],
            schema,
            issued: Vec::new(),
            settled: 0,
            judged: Vec::new(),
            broken: false,
        };
        // Seed every delta label cold, 16 at a time.
        let seeding: Vec<DeltaOp> = ops.stream.seeding().collect();
        let mut tickets = VecDeque::new();
        for op in seeding {
            if tickets.len() == OUTSTANDING {
                let oldest: Ticket = tickets.pop_front().expect("window is full");
                oldest.wait().expect("seeding instance completes");
            }
            let (request, _) = ops.request(op);
            tickets.push_back(server.submit(request).expect("seeding request is accepted"));
        }
        for t in tickets {
            t.wait().expect("seeding instance completes");
        }
        (server, ops, crate::inputs::DELTA_LABELS as u64)
    });
    if cfg.trace {
        let t = server.telemetry().snapshot();
        let counter = |name| t.counter(name).unwrap_or(0);
        out.sheet.set(
            "statestore.memo_hit_share",
            share(counter("memo_hits"), counter("memo_misses")),
        );
        out.sheet.set(
            "statestore.delta_reused_share",
            share(counter("delta_reused"), counter("delta_reexecuted")),
        );
        out.sheet.set(
            "statestore.delta_lookup_miss_share",
            share(counter("delta_lookup_misses"), counter("delta_lookup_hits")),
        );
        out.sheet.set(
            "statestore.snapshots_live",
            server.state_store().len() as f64,
        );
    }
    out
}

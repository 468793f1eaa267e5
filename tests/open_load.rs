//! Open-loop saturation on the unified `Workload` API: when offered
//! load exceeds capacity, late-drop accounting is **exact**
//! (`submitted = completed + late_dropped + abandoned`) and — on the
//! virtual-time `SimDb` backend — **deterministic per seed**. A small
//! real-server (`EngineServer` backend) run checks the same identity under
//! true concurrency, with the late drops coming from
//! `Request::deadline`.

use std::time::Duration;

use decision_flows::decisionflow::server::EngineServer;
use decision_flows::dflowgen::{generate, GeneratedFlow, PatternParams};
use decision_flows::dflowperf::{Arrival, LoadReport, SimDb, UnitTime, Workload};

fn pattern() -> PatternParams {
    PatternParams {
        nb_nodes: 16,
        nb_rows: 4,
        pct_enabled: 75,
        ..Default::default()
    }
}

fn flows(n: u64) -> Vec<GeneratedFlow> {
    (0..n)
        .map(|i| generate(pattern(), 0x0_11AD + i).unwrap())
        .collect()
}

/// The workload of the saturation tests: Poisson arrivals far beyond
/// the simulated database's capacity, with a virtual deadline tight
/// enough that the growing backlog must blow it.
fn overload() -> Workload {
    Workload::new(flows(3))
        .arrivals(Arrival::Poisson { rate: 10.0 })
        .instances(120)
        .warmup(20)
        .seed(0xD0_0D)
        .deadline(Duration::from_millis(1500))
        .strategy("PCE100".parse().unwrap())
}

#[test]
fn simdb_overload_accounting_is_exact() {
    let r = overload().run(&SimDb::default()).expect("valid workload");
    assert_eq!(r.submitted, 120);
    assert!(
        r.accounts_exactly(),
        "submitted ({}) = completed ({}) + late ({}) + abandoned ({})",
        r.submitted,
        r.completed,
        r.late_dropped,
        r.abandoned
    );
    assert!(
        r.late_dropped > 0,
        "offered load beyond capacity with a 1.5s budget must drop instances late"
    );
    assert!(
        r.completed > 0,
        "the first arrivals see an empty system and finish in budget"
    );
    assert_eq!(r.abandoned, 0, "the simulated database never abandons");
    // Latency statistics cover exactly the measured in-deadline set.
    assert_eq!(r.responses.count() as usize, r.phases.measured_completed);
    assert_eq!(
        r.completed,
        r.phases.warmup_completed + r.phases.measured_completed
    );
    assert_eq!(
        r.late_dropped,
        r.phases.warmup_late + r.phases.measured_late
    );
    // Every in-budget response is ≤ the budget; the max confirms the
    // cut is real, not vacuous.
    assert!(r.percentiles.max <= 1500.0 + 1e-9);
}

#[test]
fn simdb_overload_is_deterministic_per_seed() {
    let a = overload().run(&SimDb::default()).expect("valid workload");
    let b = overload().run(&SimDb::default()).expect("valid workload");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.late_dropped, b.late_dropped);
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.responses.count(), b.responses.count());
    assert_eq!(a.responses.mean(), b.responses.mean());
    assert_eq!(a.percentiles, b.percentiles);
    assert_eq!(a.throughput_per_sec, b.throughput_per_sec);
    let (sa, sb) = (a.sim.unwrap(), b.sim.unwrap());
    assert_eq!(sa.makespan, sb.makespan);
    assert_eq!(sa.mean_gmpl, sb.mean_gmpl);

    // A different seed draws different arrival gaps: same identity,
    // (almost surely) different realization.
    let c = overload()
        .seed(0xD0_0E)
        .run(&SimDb::default())
        .expect("valid workload");
    assert!(c.accounts_exactly());
    assert_ne!(
        c.sim.unwrap().makespan,
        sa.makespan,
        "different seed must change the arrival realization"
    );
}

/// Raising offered load on the SimDb backend monotonically increases
/// the late-drop count under a fixed budget — the saturation knee is
/// visible in the accounting, not just in latency.
#[test]
fn simdb_late_drops_grow_with_offered_load() {
    let late_at = |rate: f64| {
        overload()
            .arrivals(Arrival::Poisson { rate })
            .run(&SimDb::default())
            .expect("valid workload")
            .late_dropped
    };
    let quiet = late_at(1.0);
    let busy = late_at(40.0);
    assert_eq!(quiet, 0, "1/s is far below capacity: no late drops");
    assert!(busy > 20, "40/s must drop most instances late ({busy})");
}

/// The same overload workload runs on all three backends and accounts
/// exactly on each — the acceptance shape of the unified API.
#[test]
fn overload_workload_accounts_on_all_backends() {
    let w = overload().instances(40);
    let unit = w.run(&UnitTime::checked()).expect("unit-time");
    let sim = w.run(&SimDb::default()).expect("simdb");
    // Real time replaces virtual time on the server: map one unit of
    // processing to 200µs so two workers are a finite resource, and
    // give the budget in real milliseconds.
    let timed: Vec<GeneratedFlow> = w
        .flows()
        .iter()
        .map(|f| f.with_unit_delay(Duration::from_micros(200)))
        .collect();
    let server = Workload::new(timed)
        .arrivals(Arrival::Poisson { rate: 40.0 })
        .instances(40)
        .warmup(20)
        .seed(0xD0_0D)
        .deadline(Duration::from_secs(60))
        .strategy("PCE100".parse().unwrap())
        .run(
            &EngineServer::builder()
                .shards(2)
                .workers_per_shard(1)
                .build()
                .expect("server build"),
        )
        .expect("server run");
    for r in [&unit, &sim, &server] {
        assert_eq!(r.submitted, 40, "{}", r.backend);
        assert!(r.accounts_exactly(), "{}", r.backend);
    }
    assert_eq!(unit.late_dropped, 0, "unit-time has no clock to miss");
    assert_eq!(server.abandoned, 0);
    assert_eq!(
        server.late_dropped, 0,
        "a 60s wall-clock budget is never exceeded by this tiny run"
    );
    assert!(server.throughput_per_sec > 0.0);
}

/// Tight real deadlines on the server backend produce late drops
/// counted via `Request::deadline` — and the identity still holds.
#[test]
fn server_tight_deadline_counts_late_drops() {
    // One worker, ~8ms of sleep per instance, arrivals at 4x capacity:
    // the backlog grows and a 25ms budget must be blown by stragglers.
    let timed: Vec<GeneratedFlow> = flows(2)
        .iter()
        .map(|f| f.with_unit_delay(Duration::from_micros(250)))
        .collect();
    let r: LoadReport = Workload::new(timed)
        .arrivals(Arrival::Poisson { rate: 500.0 })
        .instances(60)
        .warmup(10)
        .seed(7)
        .deadline(Duration::from_millis(25))
        .strategy("PCE0".parse().unwrap())
        .run(
            &EngineServer::builder()
                .shards(1)
                .workers_per_shard(1)
                .build()
                .expect("server build"),
        )
        .expect("server run");
    assert_eq!(r.submitted, 60);
    assert!(r.accounts_exactly());
    assert!(
        r.late_dropped > 0,
        "4x overload with a 25ms budget must drop instances late \
         (completed {}, late {}, abandoned {})",
        r.completed,
        r.late_dropped,
        r.abandoned
    );
}

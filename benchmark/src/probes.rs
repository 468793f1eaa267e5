//! Per-layer probes: each times calls into one layer's public functions
//! on the same seeded inputs the workloads use, and reports the median
//! over `BATCHES` batches of the mean time of one call. They run after
//! the traced workload, in the same process.

use std::sync::Arc;
use std::time::Instant;

use decisionflow::engine::scheduler;
use decisionflow::journal::schema_fingerprint;
use decisionflow::prelude::*;
use dflowgen::{generate, GeneratedFlow, PatternParams};
use dflowperf::{Arrival, SimDb, Workload};

use crate::catalog::{grid_name, Sheet, ENABLED, STRATEGIES};
use crate::inputs::{armed_flow, grid_flows, ArmValues, Binding, Rng, ARMS};
use crate::stats::median;
use crate::unit::{Grid, POPULATION};
use crate::Config;

const BATCHES: usize = 5;
/// Flows a probe cycles through, so that a figure is a mean over flows
/// and not the cost of one flow's shape.
const FLOWS: usize = 32;

/// Median over the batches of the mean nanoseconds one call of `f`
/// takes; `f` gets the call's index within its batch.
fn time_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut per_call)
}

fn strategy(name: &str) -> Strategy {
    name.parse().expect("literal strategy")
}

pub fn run(cfg: &Config, sheet: &mut Sheet) {
    let flows = grid_flows(cfg.seed, 64, 75, FLOWS);
    expr(cfg, &flows, sheet);
    construction(cfg, &flows, sheet);
    engine(&flows, sheet);
    grid_counts(cfg, sheet);
    api_and_journal(&flows, sheet);
    store(cfg, &flows, sheet);
    statestore(cfg, sheet);
    server_and_telemetry(&flows, sheet);
    simdb(cfg, &flows, sheet);
    // What the server adds around one engine run of the same flows.
    if let (Some(execute), Some(run)) = (
        sheet.get("server.execute_us_p50"),
        sheet.get("engine.run_us.PSE100"),
    ) {
        sheet.set("server.overhead_us", execute - run);
    }
}

/// `Expr::eval` on every enabling condition with every second attribute
/// stable at its oracle value and the rest still unstable.
fn expr(cfg: &Config, flows: &[GeneratedFlow], sheet: &mut Sheet) {
    let sparse = grid_flows(cfg.seed, 64, 25, FLOWS);
    let mut cases: Vec<(&Expr, usize)> = Vec::new();
    let mut envs: Vec<Vec<Option<Value>>> = Vec::new();
    for flow in flows.iter().chain(&sparse) {
        let snap = complete_snapshot(&flow.schema, &flow.sources)
            .expect("generated sources bind every source");
        let env = flow
            .schema
            .attr_ids()
            .map(|a| (a.index() % 2 == 0).then(|| snap.value(a).clone()))
            .collect();
        cases.extend(
            flow.schema
                .attr_ids()
                .map(|a| (&flow.schema.attr(a).enabling, envs.len())),
        );
        envs.push(env);
    }
    let decided = cases
        .iter()
        .filter(|(e, env)| e.eval(envs[*env].as_slice()).is_decided())
        .count();
    sheet.set("expr.decided_share", decided as f64 / cases.len() as f64);
    let pass = time_ns(40, |_| {
        for (e, env) in &cases {
            std::hint::black_box(e.eval(envs[*env].as_slice()));
        }
    });
    sheet.set("expr.eval_ns", pass / cases.len() as f64);
}

/// Rebuild `flow`'s schema attribute by attribute.
fn rebuild(flow: &GeneratedFlow) -> Schema {
    let mut b = SchemaBuilder::new();
    for a in flow.schema.attr_ids() {
        let def = flow.schema.attr(a);
        let id = if def.task.is_source() {
            b.source(def.name.clone())
        } else {
            b.attr(
                def.name.clone(),
                def.task.clone(),
                def.inputs.clone(),
                def.enabling.clone(),
            )
        };
        if def.target {
            b.mark_target(id);
        }
    }
    b.build().expect("a valid schema rebuilds")
}

/// What set-up is made of: generation, schema build, analysis,
/// fingerprint, and the oracle the expectations come from.
fn construction(cfg: &Config, flows: &[GeneratedFlow], sheet: &mut Sheet) {
    let params = PatternParams {
        pct_enabled: 75,
        ..Default::default()
    };
    let of = |i: usize| &flows[i % flows.len()];
    sheet.set(
        "dflowgen.generate_us",
        time_ns(200, |i| {
            std::hint::black_box(
                generate(params, cfg.seed.wrapping_add(i as u64))
                    .expect("Table 1 defaults generate"),
            );
        }) / 1e3,
    );
    sheet.set(
        "schema.build_us",
        time_ns(200, |i| drop(std::hint::black_box(rebuild(of(i))))) / 1e3,
    );
    sheet.set(
        "analysis.analyze_us",
        time_ns(200, |i| drop(std::hint::black_box(of(i).schema.analyze()))) / 1e3,
    );
    sheet.set(
        "journal.schema_fingerprint_ns",
        time_ns(1000, |i| {
            std::hint::black_box(schema_fingerprint(&of(i).schema));
        }),
    );
    sheet.set(
        "snapshot.oracle_us",
        time_ns(1000, |i| {
            std::hint::black_box(
                complete_snapshot(&of(i).schema, &of(i).sources).expect("sources are bound"),
            );
        }) / 1e3,
    );
}

fn engine(flows: &[GeneratedFlow], sheet: &mut Sheet) {
    let of = |i: usize| &flows[i % flows.len()];
    for name in STRATEGIES {
        let s = strategy(name);
        sheet.set(
            format!("engine.run_us.{name}"),
            time_ns(1000, |i| {
                std::hint::black_box(
                    run_unit_time(&of(i).schema, s, &of(i).sources).expect("generated flows run"),
                );
            }) / 1e3,
        );
    }
    let pse = strategy("PSE100");
    let fresh = |i: usize| {
        InstanceRuntime::with_options(
            Arc::clone(&of(i).schema),
            pse,
            &of(i).sources,
            RuntimeOptions::default(),
        )
        .expect("sources are bound")
    };
    sheet.set(
        "engine.runtime_new_us",
        time_ns(1000, |i| drop(std::hint::black_box(fresh(i)))) / 1e3,
    );

    // The candidate pool of a just-built runtime; asking again leaves
    // it as it was, so one runtime per flow serves every call.
    let mut runtimes: Vec<InstanceRuntime> = (0..flows.len()).map(fresh).collect();
    let mut pool = Vec::new();
    sheet.set(
        "engine.candidates_ns",
        time_ns(20_000, |i| {
            runtimes[i % FLOWS].candidates_into(&mut pool);
            std::hint::black_box(&pool);
        }),
    );
    let sixteen: Vec<Vec<AttrId>> = flows
        .iter()
        .map(|f| {
            f.schema
                .attr_ids()
                .filter(|&a| !f.schema.is_source(a))
                .step_by(3)
                .take(16)
                .collect()
        })
        .collect();
    sheet.set(
        "engine.select_ns",
        time_ns(20_000, |i| {
            pool.clear();
            pool.extend_from_slice(&sixteen[i % FLOWS]);
            scheduler::select_into(&of(i).schema, pse, &mut pool, 0);
            std::hint::black_box(&pool);
        }),
    );
}

/// The paper's own measures on the `unit_grid` population: exact
/// counts, the same for one seed whichever workload ran before.
fn grid_counts(cfg: &Config, sheet: &mut Sheet) {
    let grid = Grid::build(cfg.seed, POPULATION);
    let mut cells = [[(0u64, 0u64); ENABLED.len()]; STRATEGIES.len()];
    let mut total = InstanceMetrics::new();
    let (mut runs, mut edges) = (0u64, 0u64);
    for op in &grid.ops {
        // A disagreement with the oracle here fails `unit_grid` itself;
        // the counts are taken from whatever ran.
        let Ok(report) = op.request.run() else {
            continue;
        };
        let cell = &mut cells[op.cell.0][op.cell.1];
        cell.0 += report.outcome.metrics.work;
        cell.1 += report.outcome.time_units;
        total.accumulate(&report.outcome.metrics);
        edges += op.request.schema().map_or(0, |s| s.edge_count()) as u64;
        runs += 1;
    }
    let per_cell = POPULATION as f64;
    for (s, name) in STRATEGIES.iter().enumerate() {
        for (e, &(_, tag)) in ENABLED.iter().enumerate() {
            sheet.set(
                grid_name("work_units", name, tag),
                cells[s][e].0 as f64 / per_cell,
            );
            sheet.set(
                grid_name("time_units", name, tag),
                cells[s][e].1 as f64 / per_cell,
            );
        }
    }
    let runs = runs.max(1) as f64;
    sheet.set(
        "engine.propagation_steps_per_edge",
        total.propagation_steps as f64 / edges.max(1) as f64,
    );
    sheet.set("engine.wasted_share", total.waste_ratio());
    sheet.set(
        "engine.unneeded_per_instance",
        f64::from(total.unneeded_detected) / runs,
    );
    sheet.set(
        "engine.eager_decisions_per_instance",
        f64::from(total.eager_decisions) / runs,
    );
}

fn api_and_journal(flows: &[GeneratedFlow], sheet: &mut Sheet) {
    let of = |i: usize| &flows[i % flows.len()];
    let pse = strategy("PSE100");
    sheet.set(
        "api.request_build_ns",
        time_ns(5000, |i| {
            std::hint::black_box(Request::named("f0").sources(of(i).sources.clone()));
        }),
    );
    let request = |i: usize, record: bool| {
        Request::with_schema(Arc::clone(&of(i).schema))
            .sources(of(i).sources.clone())
            .strategy(pse)
            .record_journal(record)
    };
    let plain: Vec<Request> = (0..FLOWS).map(|i| request(i, false)).collect();
    let recorded: Vec<Request> = (0..FLOWS).map(|i| request(i, true)).collect();
    let run_us = |requests: &[Request]| {
        time_ns(1000, |i| {
            std::hint::black_box(requests[i % FLOWS].run().expect("generated flows run"));
        }) / 1e3
    };
    let plain_us = run_us(&plain);
    sheet.set("api.run_us", plain_us);
    sheet.set("journal.capture_overhead_us", run_us(&recorded) - plain_us);

    let journals: Vec<Journal> = recorded
        .iter()
        .map(|r| {
            r.run()
                .expect("generated flows run")
                .journal
                .expect("recording was on")
        })
        .collect();
    let frames = journals.iter().map(|j| j.frames.len()).sum::<usize>() as f64;
    sheet.set("journal.frames_per_instance", frames / FLOWS as f64);
    let json: Vec<String> = journals.iter().map(Journal::to_json).collect();
    sheet.set(
        "journal.bytes_per_frame",
        json.iter().map(String::len).sum::<usize>() as f64 / frames,
    );
    sheet.set(
        "journal.encode_us",
        time_ns(200, |i| {
            drop(std::hint::black_box(journals[i % FLOWS].to_json()))
        }) / 1e3,
    );
    sheet.set(
        "journal.decode_us",
        time_ns(200, |i| {
            std::hint::black_box(
                Journal::from_json(&json[i % FLOWS]).expect("own encoding decodes"),
            );
        }) / 1e3,
    );
    let mut tape = Vec::new();
    sheet.set(
        "journal.stream_write_us",
        time_ns(200, |i| {
            tape.clear();
            journals[i % FLOWS]
                .write_stream(&mut tape)
                .expect("writing to memory");
        }) / 1e3,
    );
    let tapes: Vec<Vec<u8>> = journals
        .iter()
        .map(|j| {
            let mut t = Vec::new();
            j.write_stream(&mut t).expect("writing to memory");
            t
        })
        .collect();
    sheet.set(
        "journal.stream_read_us",
        time_ns(200, |i| {
            std::hint::black_box(
                read_journal(tapes[i % FLOWS].as_slice()).expect("own tape reads"),
            );
        }) / 1e3,
    );
    let engines: Vec<ReplayEngine> = journals
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            ReplayEngine::new(Arc::clone(&of(i).schema), j).expect("own journal matches its schema")
        })
        .collect();
    sheet.set(
        "journal.replay_us",
        time_ns(200, |i| {
            std::hint::black_box(engines[i % FLOWS].replay().expect("own journal replays"));
        }) / 1e3,
    );
}

/// `EventStore::append` of one frame record (it returns once the record
/// is queued) and `sync` after 64 of them (the group commit they wait
/// for).
fn store(cfg: &Config, flows: &[GeneratedFlow], sheet: &mut Sheet) {
    const PER_SYNC: usize = 64;
    let journal = Request::with_schema(Arc::clone(&flows[0].schema))
        .sources(flows[0].sources.clone())
        .strategy(strategy("PSE100"))
        .record_journal(true)
        .run()
        .expect("generated flows run")
        .journal
        .expect("recording was on");
    let dir = cfg.out.join("wal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let Ok(store) = EventStore::open(&dir) else {
        return;
    };
    let event = |i: usize| StoreEvent::FrameAppended {
        instance_id: 1,
        attempt: 0,
        frame: journal.frames[i % journal.frames.len()].clone(),
    };
    let (mut append_ns, mut sync_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES * 4 {
        let events: Vec<StoreEvent> = (0..PER_SYNC).map(event).collect();
        let t0 = Instant::now();
        for e in events {
            let _ = store.append(0, e);
        }
        let t1 = Instant::now();
        let _ = store.sync();
        append_ns.push((t1 - t0).as_nanos() as f64 / PER_SYNC as f64);
        sync_ns.push(t1.elapsed().as_nanos() as f64);
    }
    sheet.set("store.append_us", median(&mut append_ns) / 1e3);
    sheet.set("store.sync_us", median(&mut sync_ns) / 1e3);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn statestore(cfg: &Config, sheet: &mut Sheet) {
    const LABELS: usize = 1000;
    let schema = armed_flow();
    let values = ArmValues::new(&schema, cfg.seed);
    let mut rng = Rng::new(cfg.seed, 0x57A7E);
    let mut binding: Binding = std::array::from_fn(|_| rng.below(8) as u8);
    let done = Request::with_schema(Arc::clone(&schema))
        .sources(values.sources(&binding))
        .strategy(strategy("PCE100"))
        .run()
        .expect("the armed flow runs")
        .outcome
        .runtime;
    sheet.set(
        "statestore.capture_us",
        time_ns(1000, |_| {
            drop(std::hint::black_box(InstanceSnapshot::capture(
                &done, "probe",
            )))
        }) / 1e3,
    );
    let fingerprint = schema_fingerprint(&schema);
    let labels: Vec<String> = (0..LABELS).map(|i| format!("L{i}")).collect();
    let store = StateStore::new(2);
    let mut commit_ns = Vec::new();
    for _ in 0..BATCHES {
        let snapshots: Vec<InstanceSnapshot> = labels
            .iter()
            .map(|l| InstanceSnapshot::capture(&done, l.as_str()))
            .collect();
        let t0 = Instant::now();
        for s in snapshots {
            std::hint::black_box(store.commit(s));
        }
        commit_ns.push(t0.elapsed().as_nanos() as f64 / LABELS as f64);
    }
    sheet.set("statestore.commit_ns", median(&mut commit_ns));
    sheet.set(
        "statestore.lookup_ns",
        time_ns(LABELS, |i| {
            std::hint::black_box(store.lookup(fingerprint, &labels[i]));
        }),
    );
    let prior = store
        .lookup(fingerprint, &labels[0])
        .expect("committed above");
    binding[rng.below(ARMS)] = 9;
    let rebound = values.sources(&binding);
    sheet.set(
        "statestore.plan_delta_us",
        time_ns(1000, |_| {
            std::hint::black_box(plan_delta(&schema, &prior, &rebound).expect("same schema"));
        }) / 1e3,
    );

    let memo = MemoTable::new(2, 4096);
    let attr = schema.targets()[0];
    let inputs: Vec<Vec<Value>> = (0..LABELS as i64)
        .map(|i| vec![Value::Int(i), Value::Int(i * 31)])
        .collect();
    let mut insert_ns = Vec::new();
    for batch in 0..BATCHES as u64 {
        let fresh = inputs.clone();
        let t0 = Instant::now();
        for (i, key) in fresh.into_iter().enumerate() {
            // A fingerprint per batch, so that every insert is a new entry.
            memo.insert(fingerprint ^ batch, attr, key, Value::Int(i as i64));
        }
        insert_ns.push(t0.elapsed().as_nanos() as f64 / LABELS as f64);
    }
    sheet.set("statestore.memo_insert_ns", median(&mut insert_ns));
    let newest = fingerprint ^ (BATCHES as u64 - 1);
    sheet.set(
        "statestore.memo_lookup_ns",
        time_ns(LABELS, |i| {
            std::hint::black_box(memo.lookup(newest, attr, &inputs[i]));
        }),
    );
}

/// Server life-cycle costs and the telemetry read path, on a server
/// that has just served a few thousand instances.
fn server_and_telemetry(flows: &[GeneratedFlow], sheet: &mut Sheet) {
    const SERVED: usize = 4096;
    let (mut build_ms, mut register_us, mut drop_ms) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..BATCHES {
        let t0 = Instant::now();
        let server = EngineServer::builder()
            .shards(2)
            .workers_per_shard(1)
            .strategy(strategy("PSE100"))
            .build()
            .expect("volatile server builds");
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for (i, f) in flows.iter().enumerate() {
            server.register(format!("f{i}"), Arc::clone(&f.schema));
        }
        register_us.push(t0.elapsed().as_secs_f64() * 1e6 / flows.len() as f64);
        let served = server
            .submit_many((0..SERVED).map(|i| {
                Request::named(format!("f{}", i % FLOWS)).sources(flows[i % FLOWS].sources.clone())
            }))
            .map(|batch| batch.wait_all().len());
        if rep == 0 && served.is_ok() {
            let telemetry = server.telemetry();
            sheet.set(
                "telemetry.snapshot_us",
                time_ns(200, |_| drop(std::hint::black_box(telemetry.snapshot()))) / 1e3,
            );
            sheet.set(
                "telemetry.render_prometheus_us",
                time_ns(200, |_| {
                    drop(std::hint::black_box(telemetry.render_prometheus()))
                }) / 1e3,
            );
            sheet.set("telemetry.spans_dropped", telemetry.spans_dropped() as f64);
        }
        let t0 = Instant::now();
        drop(server);
        drop_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    sheet.set("server.build_ms", median(&mut build_ms));
    sheet.set("server.register_us", median(&mut register_us));
    sheet.set("server.drop_ms", median(&mut drop_ms));
}

/// One seeded open-arrival run against the simulated database (the
/// Figure 9 setting): virtual time, so `mean_gmpl` repeats exactly.
fn simdb(cfg: &Config, flows: &[GeneratedFlow], sheet: &mut Sheet) {
    let workload = Workload::new(flows[..8].to_vec())
        .arrivals(Arrival::Poisson { rate: 2.5 })
        .instances(400)
        .warmup(80)
        .seed(cfg.seed)
        .strategy(strategy("PCE100"));
    let t0 = Instant::now();
    let report = workload.run(&SimDb::default());
    sheet.set("dflowperf.simdb_run_ms", t0.elapsed().as_secs_f64() * 1e3);
    if let Some(sim) = report.ok().and_then(|r| r.sim) {
        sheet.set("simdb.mean_gmpl", sim.mean_gmpl);
    }
}

//! Every name the benchmark reports, with its unit and direction.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below keeps the two from drifting apart.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 5] = [
    "unit_grid",
    "cpu_closed",
    "durable_closed",
    "open_waiting",
    "delta_mixed",
];

pub const STRATEGIES: [&str; 4] = ["PCE0", "NCE0", "PCE100", "PSE100"];
/// `%enabled` settings of the unit grid, with their metric-name tags.
pub const ENABLED: [(u32, &str); 2] = [(25, "e25"), (75, "e75")];

/// `(name, unit, better)`.
pub type Row = (&'static str, &'static str, &'static str);

pub const END_TO_END: [Row; 7] = [
    ("setup_s", "s", "lower"),
    ("throughput_ips", "instances/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("cpu_us_per_instance", "us", "lower"),
    ("work_units_per_instance", "units", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer rows whose names do not depend on a strategy or an
/// `%enabled` setting; [`per_layer`] adds those that do.
const PER_LAYER_FIXED: [Row; 73] = [
    ("expr.eval_ns", "ns", "lower"),
    ("expr.decided_share", "share", "higher"),
    ("dflowgen.generate_us", "us", "lower"),
    ("schema.build_us", "us", "lower"),
    ("analysis.analyze_us", "us", "lower"),
    ("journal.schema_fingerprint_ns", "ns", "lower"),
    ("snapshot.oracle_us", "us", "lower"),
    ("engine.runtime_new_us", "us", "lower"),
    ("engine.candidates_ns", "ns", "lower"),
    ("engine.select_ns", "ns", "lower"),
    ("engine.propagation_steps_per_edge", "count", "lower"),
    ("engine.wasted_share", "share", "lower"),
    ("engine.unneeded_per_instance", "count", "higher"),
    ("engine.eager_decisions_per_instance", "count", "higher"),
    ("api.request_build_ns", "ns", "lower"),
    ("api.run_us", "us", "lower"),
    ("server.submit_us_p50", "us", "lower"),
    ("server.submit_us_p99", "us", "lower"),
    ("server.wait_us_p50", "us", "lower"),
    ("server.route_us_p50", "us", "lower"),
    ("server.validate_us_p50", "us", "lower"),
    ("server.queue_wait_us_p50", "us", "lower"),
    ("server.queue_wait_us_p99", "us", "lower"),
    ("server.execute_us_p50", "us", "lower"),
    ("server.execute_us_p99", "us", "lower"),
    ("server.e2e_us_p50", "us", "lower"),
    ("server.overhead_us", "us", "lower"),
    ("server.max_queue_depth", "count", "lower"),
    ("server.shard_skew", "ratio", "lower"),
    ("server.build_ms", "ms", "lower"),
    ("server.register_us", "us", "lower"),
    ("server.drop_ms", "ms", "lower"),
    ("journal.capture_overhead_us", "us", "lower"),
    ("journal.frames_per_instance", "count", "lower"),
    ("journal.encode_us", "us", "lower"),
    ("journal.bytes_per_frame", "bytes", "lower"),
    ("journal.decode_us", "us", "lower"),
    ("journal.stream_write_us", "us", "lower"),
    ("journal.stream_read_us", "us", "lower"),
    ("journal.replay_us", "us", "lower"),
    ("store.append_us", "us", "lower"),
    ("store.sync_us", "us", "lower"),
    ("store.wal_bytes_per_instance", "bytes", "lower"),
    ("store.frames_per_fsync", "count", "higher"),
    ("store.append_errors", "count", "lower"),
    ("store.fsck_s", "s", "lower"),
    ("store.reopen_s", "s", "lower"),
    ("store.reopen_mb_per_s", "MB/s", "higher"),
    ("store.fetch_journal_us", "us", "lower"),
    ("store.recovered_sealed", "count", "higher"),
    ("statestore.capture_us", "us", "lower"),
    ("statestore.commit_ns", "ns", "lower"),
    ("statestore.lookup_ns", "ns", "lower"),
    ("statestore.plan_delta_us", "us", "lower"),
    ("statestore.memo_lookup_ns", "ns", "lower"),
    ("statestore.memo_insert_ns", "ns", "lower"),
    ("statestore.memo_hit_share", "share", "higher"),
    ("statestore.delta_reused_share", "share", "higher"),
    ("statestore.delta_lookup_miss_share", "share", "lower"),
    ("statestore.snapshots_live", "count", "lower"),
    ("telemetry.snapshot_us", "us", "lower"),
    ("telemetry.render_prometheus_us", "us", "lower"),
    ("telemetry.spans_dropped", "count", "lower"),
    ("dflowperf.simdb_run_ms", "ms", "lower"),
    ("simdb.mean_gmpl", "count", "lower"),
    ("driver.sched_lag_ms_p99", "ms", "lower"),
    ("driver.offered_ips", "instances/s", "higher"),
    ("driver.open_lo_p50_ms", "ms", "lower"),
    ("driver.open_lo_p99_ms", "ms", "lower"),
    ("driver.backlog_growth", "ratio", "lower"),
    ("driver.late_share", "share", "lower"),
    ("driver.cpu_us_per_instance", "us", "lower"),
    ("driver.trace_overhead_share", "share", "lower"),
];

/// One row of the unit grid: `engine.<what>.<strategy>.<e25|e75>`.
pub fn grid_name(what: &str, strategy: &str, enabled: &str) -> String {
    format!("engine.{what}.{strategy}.{enabled}")
}

/// Every per-layer row: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut rows: Vec<_> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for s in STRATEGIES {
        rows.push((format!("engine.run_us.{s}"), "us", "lower"));
        for (_, e) in ENABLED {
            rows.push((grid_name("work_units", s, e), "units", "lower"));
            rows.push((grid_name("time_units", s, e), "units", "lower"));
        }
    }
    rows
}

/// The per-layer values one traced run collects. A row its workload
/// does not exercise (WAL counters on a volatile server, say) is never
/// set and reads 0.
#[derive(Default)]
pub struct Sheet(BTreeMap<String, f64>);

impl Sheet {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            per_layer().iter().any(|(n, _, _)| *n == name),
            "{name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every catalog row with its value, in catalog order.
    pub fn rows(&self) -> Vec<(String, f64, &'static str)> {
        per_layer()
            .into_iter()
            .map(|(n, unit, _)| {
                let v = self.0.get(&n).copied().unwrap_or(0.0);
                (n, v, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{json, map_field, Content};

    fn rows_of(list: &Content) -> Vec<(String, String, String)> {
        list.as_seq()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_map().unwrap();
                let s = |k| map_field(m, k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let spec = spec.as_map().unwrap();
        let own = |rows: Vec<(String, &str, &str)>| -> Vec<(String, String, String)> {
            rows.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(
            rows_of(map_field(spec, "end_to_end").unwrap()),
            own(END_TO_END
                .iter()
                .map(|&(n, u, b)| (n.to_string(), u, b))
                .collect())
        );
        assert_eq!(
            rows_of(map_field(spec, "per_layer").unwrap()),
            own(per_layer())
        );
        let workloads: Vec<String> = map_field(spec, "workloads")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| {
                map_field(w.as_map().unwrap(), "name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = per_layer().into_iter().map(|r| r.0).collect();
        names.extend(END_TO_END.iter().map(|r| r.0.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.to_string()));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn unset_rows_read_zero_and_keep_catalog_order() {
        let mut sheet = Sheet::default();
        sheet.set("expr.eval_ns", 12.5);
        let rows = sheet.rows();
        assert_eq!(rows.len(), per_layer().len());
        assert_eq!(rows[0], ("expr.eval_ns".to_string(), 12.5, "ns"));
        assert_eq!(rows[1].1, 0.0);
        assert_eq!(sheet.get("expr.decided_share"), None);
    }
}

//! The benchmark's own span recorder. Spans are taken from outside the
//! program — timed around the calls into each layer, or rebuilt from
//! the `StageTimings` a result carries — kept in memory, and written
//! out with per-layer self times when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use decisionflow::telemetry::StageTimings;

/// One span. Spans of one request share `request`; `parent` names the
/// span of the same request that caused this one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Requests written to the trace file in full; self times cover all.
const REQUESTS_WRITTEN: usize = 2000;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// One in-process operation: `driver.request` around `api.run`.
    pub fn in_process(&mut self, request: u64, run: (Instant, Instant), checked: Instant) {
        let (start, end) = (self.ns(run.0), self.ns(run.1));
        self.push(request, "driver.request", None, start, self.ns(checked));
        self.push(request, "api.run", Some("driver.request"), start, end);
    }

    /// One server operation: `driver.request` from the start of
    /// `submit()` to the result in hand, `server.submit` and
    /// `driver.wait` timed around the two calls, and the four server
    /// stages laid end to end from the submit instant as the returned
    /// `StageTimings` report them (route and validate under
    /// `server.submit`, queue-wait and execute under `driver.wait`).
    pub fn server_request(
        &mut self,
        request: u64,
        submit: (Instant, Instant),
        wait: (Instant, Instant),
        stages: Option<&StageTimings>,
    ) {
        let (s0, s1) = (self.ns(submit.0), self.ns(submit.1));
        let (w0, w1) = (self.ns(wait.0), self.ns(wait.1));
        self.push(request, "driver.request", None, s0, w1);
        self.push(request, "server.submit", Some("driver.request"), s0, s1);
        self.push(request, "driver.wait", Some("driver.request"), w0, w1);
        if let Some(t) = stages {
            let mut at = s0;
            for (name, parent, ns) in [
                ("server.route", "server.submit", t.route_ns),
                ("server.validate", "server.submit", t.validate_ns),
                ("server.queue_wait", "driver.wait", t.queue_wait_ns),
                ("server.execute", "driver.wait", t.execute_ns),
            ] {
                self.push(request, name, Some(parent), at, at + ns);
                at += ns;
            }
        }
    }

    /// Per span name: how many were recorded and their summed self
    /// time — duration minus the part of the span's own interval that
    /// its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        // A request's spans are pushed together, so they are adjacent.
        for group in self.spans.chunk_by(|a, b| a.request == b.request) {
            for span in group {
                let covered: u64 = group
                    .iter()
                    .filter(|c| c.parent == Some(span.name))
                    .map(|c| {
                        c.end_ns
                            .min(span.end_ns)
                            .saturating_sub(c.start_ns.max(span.start_ns))
                    })
                    .sum();
                let entry = out.entry(span.name).or_default();
                entry.0 += 1;
                entry.1 += (span.end_ns - span.start_ns).saturating_sub(covered);
            }
        }
        out
    }

    /// Write `trace-<workload>.json`: the self-time table over every
    /// recorded span, then the spans of the first requests in full.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},",
            self.spans.len()
        )?;
        writeln!(w, "\"self_time\":[")?;
        let table = self.self_times();
        for (i, (name, (count, self_ns))) in table.iter().enumerate() {
            let sep = if i + 1 < table.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"span\":\"{name}\",\"count\":{count},\"self_ms_total\":{:?},\"self_us_mean\":{:?}}}{sep}",
                *self_ns as f64 / 1e6,
                *self_ns as f64 / 1e3 / *count as f64
            )?;
        }
        writeln!(w, "],\n\"spans\":[")?;
        let mut requests = 0;
        let mut last = None;
        let mut first = true;
        for s in &self.spans {
            if last != Some(s.request) {
                last = Some(s.request);
                requests += 1;
                if requests > REQUESTS_WRITTEN {
                    break;
                }
            }
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                w,
                "{}{{\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if first { "" } else { "," },
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
            first = false;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_what_children_cover_inside_the_parent() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let stages = StageTimings {
            route_ns: 2_000,
            validate_ns: 3_000,
            queue_wait_ns: 10_000,
            execute_ns: 50_000,
            e2e_ns: 65_000,
        };
        // submit 0–10 µs, wait 12–80 µs.
        t.server_request(7, (at(0), at(10)), (at(12), at(80)), Some(&stages));
        assert_eq!(t.spans.len(), 7);
        let table = t.self_times();
        // request 80 µs − submit 10 − wait 68 = 2 µs of driver time.
        assert_eq!(table["driver.request"], (1, 2_000));
        // submit 10 µs − route 2 − validate 3 = 5 µs.
        assert_eq!(table["server.submit"], (1, 5_000));
        // wait 12–80; queue_wait 5–15 covers 3 µs of it, execute 15–65
        // covers 50 µs: 68 − 53 = 15 µs.
        assert_eq!(table["driver.wait"], (1, 15_000));
        assert_eq!(table["server.execute"], (1, 50_000));
    }

    #[test]
    fn self_times_add_up_across_requests_and_file_is_json() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        for r in 0..3u64 {
            let base = t0 + Duration::from_micros(100 * r);
            t.in_process(
                r,
                (base, base + Duration::from_micros(40)),
                base + Duration::from_micros(50),
            );
        }
        let table = t.self_times();
        assert_eq!(table["api.run"], (3, 120_000));
        assert_eq!(table["driver.request"], (3, 30_000));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-selftest-{}.json", std::process::id()));
        t.write(&path, "unit_grid").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let parsed = serde::json::parse(&text).expect("trace file parses as JSON");
        let map = parsed.as_map().unwrap();
        assert_eq!(
            serde::map_field(map, "spans_recorded").unwrap().as_u64(),
            Some(6)
        );
        assert_eq!(
            serde::map_field(map, "spans")
                .unwrap()
                .as_seq()
                .unwrap()
                .len(),
            6
        );
    }
}

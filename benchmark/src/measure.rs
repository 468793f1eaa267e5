//! The measured region: equal chunks of operations, each timed on its
//! own, so that every end-to-end timing is a median over chunks and one
//! slow stretch of a shared host moves one chunk, not the result.

use std::time::Instant;

use crate::stats::{median, p50_p99, process_cpu_ns, thread_cpu_ns};

/// A run measures at least this many chunks however slow the host.
pub const MIN_CHUNKS: usize = 5;

/// One chunk's wall time and caller-seen latency percentiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Chunk {
    pub ops: u64,
    pub wall_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Was the span recorder on while this chunk ran?
    pub traced: bool,
}

/// Everything the measured region of one workload yields.
#[derive(Clone, Debug, Default)]
pub struct Region {
    pub chunks: Vec<Chunk>,
    /// Operations in the chunks — the base of every per-instance
    /// figure.
    pub ops: u64,
    /// Sum of `InstanceMetrics::work` over those operations.
    pub work: u64,
    /// Summed wall time of the chunks.
    pub wall_s: f64,
    /// Process CPU time spent over the chunks.
    pub cpu_ns: u64,
    /// CPU time of the load-generating thread over the same stretch.
    pub driver_cpu_ns: u64,
}

impl Region {
    fn over(&self, traced: bool, f: impl Fn(&Chunk) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .chunks
            .iter()
            .filter(|c| c.traced == traced)
            .map(f)
            .collect();
        median(&mut v)
    }

    /// Median chunk throughput, instances/s.
    pub fn throughput_ips(&self, traced: bool) -> f64 {
        self.over(traced, |c| c.ops as f64 / c.wall_s)
    }

    pub fn latency_p50_ms(&self) -> f64 {
        self.over(false, |c| c.p50_ms)
    }

    pub fn latency_p99_ms(&self) -> f64 {
        self.over(false, |c| c.p99_ms)
    }

    /// The `driver.*` rows every chunked region can fill: what the
    /// load generator itself cost, and what the span recorder cost.
    pub fn driver_rows(&self, sheet: &mut crate::catalog::Sheet) {
        sheet.set(
            "driver.cpu_us_per_instance",
            self.driver_cpu_ns as f64 / 1e3 / self.ops.max(1) as f64,
        );
        sheet.set("driver.trace_overhead_share", self.trace_overhead_share());
    }

    /// Throughput lost to the span recorder, as a share of the untraced
    /// chunks' throughput (traced and untraced chunks alternate).
    pub fn trace_overhead_share(&self) -> f64 {
        let off = self.throughput_ips(false);
        if off > 0.0 && self.chunks.iter().any(|c| c.traced) {
            1.0 - self.throughput_ips(true) / off
        } else {
            0.0
        }
    }
}

/// Drives the chunk clock of a measured region. Wall time and CPU are
/// summed over the chunks, so whatever the caller does between
/// [`end_chunk`](Self::end_chunk) and [`resume`](Self::resume) is not
/// measured.
pub struct RegionClock {
    seconds: f64,
    trace: bool,
    chunk_started: Instant,
    cpu0: u64,
    driver_cpu0: u64,
    latencies_ms: Vec<f64>,
    chunk_ops: u64,
    region: Region,
}

impl RegionClock {
    /// Start the region; it runs chunks until they add up to `seconds`
    /// (and [`MIN_CHUNKS`] are done). With `trace` every second chunk
    /// runs traced.
    pub fn start(seconds: f64, trace: bool) -> RegionClock {
        RegionClock {
            seconds,
            trace,
            chunk_started: Instant::now(),
            cpu0: process_cpu_ns(),
            driver_cpu0: thread_cpu_ns(),
            latencies_ms: Vec::new(),
            chunk_ops: 0,
            region: Region::default(),
        }
    }

    /// Is the chunk now running a traced one?
    pub fn tracing(&self) -> bool {
        self.trace && self.region.chunks.len() % 2 == 1
    }

    /// Record one completed operation of the running chunk. `None` for
    /// an operation whose latency says nothing about the program: one
    /// that was outstanding while the clock was stopped.
    pub fn record(&mut self, latency_ms: Option<f64>, work: u64) {
        self.latencies_ms.extend(latency_ms);
        self.chunk_ops += 1;
        self.region.work += work;
    }

    /// Close the running chunk at `now` and start the next; `true`
    /// while the region should go on to another.
    pub fn end_chunk(&mut self, now: Instant) -> bool {
        let traced = self.tracing();
        let (p50_ms, p99_ms) = p50_p99(&mut self.latencies_ms);
        let wall_s = now.duration_since(self.chunk_started).as_secs_f64();
        self.region.chunks.push(Chunk {
            ops: self.chunk_ops,
            wall_s,
            p50_ms,
            p99_ms,
            traced,
        });
        let (cpu, driver_cpu) = (process_cpu_ns(), thread_cpu_ns());
        self.region.ops += self.chunk_ops;
        self.region.wall_s += wall_s;
        self.region.cpu_ns += cpu - self.cpu0;
        self.region.driver_cpu_ns += driver_cpu - self.driver_cpu0;
        self.latencies_ms.clear();
        self.chunk_ops = 0;
        (self.chunk_started, self.cpu0, self.driver_cpu0) = (now, cpu, driver_cpu);
        self.region.chunks.len() < MIN_CHUNKS || self.region.wall_s < self.seconds
    }

    /// Restart the running chunk's clocks after work that must not be
    /// measured.
    pub fn resume(&mut self) {
        (self.chunk_started, self.cpu0, self.driver_cpu0) =
            (Instant::now(), process_cpu_ns(), thread_cpu_ns());
    }

    pub fn finish(self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(ops: u64, wall_s: f64, p50_ms: f64, p99_ms: f64, traced: bool) -> Chunk {
        Chunk {
            ops,
            wall_s,
            p50_ms,
            p99_ms,
            traced,
        }
    }

    #[test]
    fn end_to_end_timings_are_medians_over_untraced_chunks() {
        let region = Region {
            chunks: vec![
                chunk(100, 1.0, 1.0, 9.0, false),
                chunk(100, 4.0, 5.0, 50.0, true),
                chunk(100, 2.0, 2.0, 10.0, false),
                chunk(100, 4.0, 5.0, 50.0, true),
                chunk(100, 10.0, 3.0, 30.0, false),
            ],
            ..Default::default()
        };
        assert_eq!(region.throughput_ips(false), 50.0);
        assert_eq!(region.throughput_ips(true), 25.0);
        assert_eq!(region.latency_p50_ms(), 2.0);
        assert_eq!(region.latency_p99_ms(), 10.0);
        assert_eq!(region.trace_overhead_share(), 0.5);
    }

    #[test]
    fn untraced_region_reports_no_trace_overhead() {
        let region = Region {
            chunks: vec![chunk(10, 1.0, 1.0, 1.0, false)],
            ..Default::default()
        };
        assert_eq!(region.trace_overhead_share(), 0.0);
    }

    #[test]
    fn clock_runs_min_chunks_alternates_tracing_and_sums_work() {
        let mut clock = RegionClock::start(0.0, true);
        let mut traced = Vec::new();
        loop {
            traced.push(clock.tracing());
            for i in 0..4 {
                clock.record(Some(f64::from(i)), 3);
            }
            // Counted as an operation, kept out of the percentiles.
            clock.record(None, 3);
            if !clock.end_chunk(Instant::now()) {
                break;
            }
        }
        assert_eq!(traced, [false, true, false, true, false]);
        let region = clock.finish();
        assert_eq!(region.chunks.len(), MIN_CHUNKS);
        assert_eq!((region.ops, region.work), (25, 75));
        assert!(region
            .chunks
            .iter()
            .all(|c| c.ops == 5 && c.p50_ms == 1.0 && c.p99_ms == 3.0));
        assert_eq!(
            region.wall_s,
            region.chunks.iter().map(|c| c.wall_s).sum::<f64>()
        );
    }
}

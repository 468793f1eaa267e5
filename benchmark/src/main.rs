//! `dfbench` — the repository's benchmark. One process runs one
//! workload from one load-generating thread, checks every output
//! against the declarative oracle, prints every metric by name with its
//! unit, and ends its standard output with the one-line JSON result.
//!
//! Everything here stays outside the program under test: layers are
//! measured by timing calls into their public functions and by reading
//! the `StageTimings` and telemetry counters the server already returns.

mod catalog;
mod closed;
mod inputs;
mod measure;
mod open;
mod probes;
mod stats;
mod trace;
mod unit;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use catalog::{Sheet, END_TO_END, WORKLOADS};
use measure::Region;
use trace::Tracer;

/// A workload sets itself up this many times, each from nothing: once
/// before the measured region and the rest after it. `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;

pub const DEFAULT_SEED: u64 = 20000301;

/// What one invocation was asked to do.
pub struct Config {
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and result directory (`benchmark/out` under `run.sh`).
    pub out: PathBuf,
}

/// `DFBENCH_BREAK_ORACLE=1` swaps one expected value for a wrong one,
/// to show that the correctness gate is live: the run must then fail.
pub fn break_oracle() -> bool {
    std::env::var_os("DFBENCH_BREAK_ORACLE").is_some_and(|v| v == "1")
}

/// What one workload run yields.
pub struct Outcome {
    pub setup_s: f64,
    pub throughput_ips: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub cpu_us_per_instance: f64,
    pub work_units_per_instance: f64,
    pub peak_rss_mb: f64,
    /// Measured operations and how many of them failed: submit errors,
    /// lost or late results, and results the oracle disagrees with.
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants that are not one operation's failure
    /// (accounting, `fsck`, the durable reopen). Any makes the run
    /// incorrect.
    pub violations: Vec<String>,
    /// Wall time of the measured region.
    pub wall_s: f64,
    /// Per-layer rows collected while the workload ran traced.
    pub sheet: Sheet,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// The end-to-end figures of a chunked measured region.
    pub fn of_region(setup_s: f64, region: &Region, peak_rss_mb: f64) -> Outcome {
        let ops = region.ops.max(1) as f64;
        Outcome {
            setup_s,
            throughput_ips: region.throughput_ips(false),
            latency_p50_ms: region.latency_p50_ms(),
            latency_p99_ms: region.latency_p99_ms(),
            cpu_us_per_instance: region.cpu_ns as f64 / 1e3 / ops,
            work_units_per_instance: region.work as f64 / ops,
            peak_rss_mb,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            wall_s: region.wall_s,
            sheet: Sheet::default(),
            tracer: None,
        }
    }

    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "throughput_ips" => self.throughput_ips,
            "latency_p50_ms" => self.latency_p50_ms,
            "latency_p99_ms" => self.latency_p99_ms,
            "cpu_us_per_instance" => self.cpu_us_per_instance,
            "work_units_per_instance" => self.work_units_per_instance,
            "peak_rss_mb" => self.peak_rss_mb,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Before a workload narrows the process to fewer.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: 12.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = WORKLOADS.iter().copied().find(|w| *w == value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| cfg.seconds = v)
                .is_ok_and(|()| (1.0..=60.0).contains(&cfg.seconds)),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            "--out" => {
                cfg.out = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("cannot create {}: {e}", cfg.out.display());
        return ExitCode::FAILURE;
    }

    let mut outcome = match workload {
        "unit_grid" => unit::unit_grid(&cfg),
        "cpu_closed" => closed::cpu_closed(&cfg),
        "durable_closed" => closed::durable_closed(&cfg),
        "open_waiting" => open::open_waiting(&cfg),
        "delta_mixed" => closed::delta_mixed(&cfg),
        _ => unreachable!("--workload was checked against WORKLOADS"),
    };
    if cfg.trace {
        if let Some(tracer) = outcome.tracer.take() {
            let path = cfg.out.join(format!("trace-{workload}.json"));
            if let Err(e) = tracer.write(&path, workload) {
                outcome
                    .violations
                    .push(format!("trace file {}: {e}", path.display()));
            }
        }
        probes::run(&cfg, &mut outcome.sheet);
    }

    let correct = outcome.failed == 0 && outcome.violations.is_empty();
    let rows: Vec<(String, f64, &str)> = if cfg.trace {
        outcome.sheet.rows()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, unit, _)| (n.to_string(), outcome.end_to_end(n), unit))
            .collect()
    };

    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (name, value, unit) in &rows {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!(
        "attempted {}  failed {}  correct {correct}",
        outcome.attempted, outcome.failed
    );
    for v in &outcome.violations {
        println!("VIOLATION {v}");
    }

    let mut metrics = String::new();
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A ratio over nothing is reported as 0, never as NaN: the
        // line below has to stay JSON.
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    let env = environment(
        &cfg,
        workload,
        nproc,
        &outcome,
        started.elapsed().as_secs_f64(),
    );
    let file = cfg.out.join(format!(
        "result-{workload}{}.json",
        if cfg.trace { "-traced" } else { "" }
    ));
    if let Err(e) = std::fs::write(
        &file,
        format!("{{\"environment\": {env},\n\"result\": {result}}}\n"),
    ) {
        eprintln!("cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown".to_string(),
            |s| s.trim().replace(['"', '\\'], "'"),
        )
}

/// File-system type of the mount holding `dir`, from the text of
/// `/proc/mounts`: the longest mount point that is a prefix of `dir`.
fn fs_type(mounts: &str, dir: &std::path::Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (point, kind) = (f.nth(1)?, f.next()?);
            dir.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// Where and on what the numbers were taken, as a JSON object.
fn environment(
    cfg: &Config,
    workload: &str,
    nproc: usize,
    outcome: &Outcome,
    total_s: f64,
) -> String {
    let out = cfg.out.canonicalize().unwrap_or_else(|_| cfg.out.clone());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"nproc\": {}, \
         \"rustc\": \"{}\", \"git_commit\": \"{}\", \"out_fs\": \"{}\", \
         \"operations\": {}, \"measured_wall_s\": {:?}, \"total_wall_s\": {total_s:?}}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        nproc,
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
        fs_type(&mounts, &out),
        outcome.attempted,
        outcome.wall_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_type_picks_the_longest_enclosing_mount() {
        let mounts = "overlay / overlay rw 0 0\n\
                      /dev/vdb /root ext4 rw 0 0\n\
                      tmpfs /root/repo/benchmark/out tmpfs rw 0 0\n\
                      tmpfs /tmp tmpfs rw 0 0\n";
        let at = |p: &str| fs_type(mounts, std::path::Path::new(p));
        assert_eq!(at("/root/repo/benchmark/out"), "tmpfs");
        assert_eq!(at("/root/repo/benchmark"), "ext4");
        assert_eq!(at("/srv"), "overlay");
        assert_eq!(fs_type("", std::path::Path::new("/srv")), "unknown");
    }
}

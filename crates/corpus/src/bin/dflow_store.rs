//! `dflow-store` — operate on a durable event-store directory from
//! the command line: integrity checks, history listing, time-travel
//! replay, and compaction.
//!
//! ```text
//! dflow-store fsck DIR [--json FILE]
//!     read-only integrity check: decode every segment, verify
//!     checksums and the exactly-once lifecycle; torn tails (the
//!     expected crash artifact) are warnings, everything else is an
//!     error. `--json` writes the full FsckReport (the CI artifact).
//! dflow-store ls DIR
//!     read-only listing of the store's history: sealed instances
//!     (outcome, attempt, frames) and pending ones a reopen would
//!     re-execute.
//! dflow-store replay DIR ID [--schema FILE.dsl] [--tape FILE]
//!     reconstruct instance ID's journal from the WAL (time travel).
//!     With `--schema`, re-execute it through the ReplayEngine and
//!     cross-check every frame; without, print the tape summary.
//!     `--tape` writes the journal in capture stream format.
//! dflow-store compact DIR
//!     rewrite the store to a single segment holding only accept
//!     records and the frames of each instance's final attempt.
//! ```
//!
//! The store must be quiescent (no live `EngineServer` appending to
//! it) for `compact`; `fsck`, `ls`, and `replay` are read-only and
//! safe on a crashed store. Exit codes: `0` clean, `1` integrity
//! findings or divergence, `2` usage or operational error.

use std::path::PathBuf;
use std::process::ExitCode;

use decisionflow::dsl::parse_schema;
use decisionflow::journal::ReplayEngine;
use decisionflow::store::{self, SealOutcome};
use dflow_corpus::stub_externs;

struct Args {
    command: String,
    dir: PathBuf,
    id: Option<u64>,
    schema: Option<PathBuf>,
    tape: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn usage(detail: &str) -> String {
    format!(
        "{detail}\nusage: dflow-store <fsck|ls|replay|compact> DIR \
         [ID] [--schema FILE] [--tape FILE] [--json FILE]"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| usage("missing command"))?;
    let mut args = Args {
        command,
        dir: PathBuf::new(),
        id: None,
        schema: None,
        tape: None,
        json: None,
    };
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--schema" => args.schema = Some(PathBuf::from(value("--schema")?)),
            "--tape" => args.tape = Some(PathBuf::from(value("--tape")?)),
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            other if other.starts_with("--") => {
                return Err(usage(&format!("unknown flag {other}")))
            }
            _ => positional.push(arg),
        }
    }
    let mut positional = positional.into_iter();
    args.dir = PathBuf::from(
        positional
            .next()
            .ok_or_else(|| usage("missing store DIR"))?,
    );
    if let Some(id) = positional.next() {
        args.id = Some(
            id.parse()
                .map_err(|_| usage(&format!("instance id {id:?} is not a number")))?,
        );
    }
    if let Some(extra) = positional.next() {
        return Err(usage(&format!("unexpected argument {extra:?}")));
    }
    Ok(args)
}

fn outcome_str(outcome: SealOutcome) -> &'static str {
    match outcome {
        SealOutcome::Completed => "completed",
        SealOutcome::DeadlineExceeded => "deadline-exceeded",
        SealOutcome::Abandoned => "abandoned",
    }
}

fn fsck(args: &Args) -> Result<ExitCode, String> {
    let report = store::fsck(&args.dir).map_err(|e| e.to_string())?;
    print!("{}", report.to_text());
    if let Some(path) = &args.json {
        let json = serde::json::to_string(&report);
        std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("fsck report -> {}", path.display());
    }
    Ok(if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn ls(args: &Args) -> Result<ExitCode, String> {
    let state = store::inspect(&args.dir).map_err(|e| e.to_string())?;
    println!("{} sealed instance(s):", state.sealed.len());
    for s in &state.sealed {
        let label = s.label.as_deref().unwrap_or("-");
        println!(
            "  {:>8}  {:<18}  attempt {}  {:>5} frame(s)  schema {}  label {}",
            s.instance_id,
            outcome_str(s.outcome),
            s.attempt,
            s.frames,
            s.schema,
            label
        );
    }
    println!(
        "{} pending instance(s) (a reopen re-executes these):",
        state.pending.len()
    );
    for p in &state.pending {
        println!(
            "  {:>8}  next attempt {}  schema {}",
            p.request.instance_id, p.next_attempt, p.request.schema
        );
    }
    for f in &state.findings {
        println!("warning: {}: {}", f.segment, f.detail);
    }
    println!("next instance id: {}", state.next_instance_id);
    Ok(ExitCode::SUCCESS)
}

fn replay(args: &Args) -> Result<ExitCode, String> {
    let id = args
        .id
        .ok_or_else(|| usage("replay needs an instance ID"))?;
    let journal = store::fetch_journal(&args.dir, id).map_err(|e| e.to_string())?;
    println!(
        "instance {id}: {} frame(s), strategy {}, fingerprint {:#018x}",
        journal.len(),
        journal.strategy,
        journal.schema_fingerprint
    );
    for (name, value) in &journal.sources {
        println!("  source {name} = {value:?}");
    }
    if let Some(path) = &args.tape {
        let mut bytes = Vec::new();
        journal
            .write_stream(&mut bytes)
            .map_err(|e| format!("serialize tape: {e}"))?;
        std::fs::write(path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("tape -> {}", path.display());
    }
    let Some(schema_path) = &args.schema else {
        println!("no --schema given: tape inspected, not re-executed");
        return Ok(ExitCode::SUCCESS);
    };
    let text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("read {}: {e}", schema_path.display()))?;
    let schema = parse_schema(&text, &stub_externs(&text)).map_err(|e| e.message)?;
    let engine = match ReplayEngine::new(schema, journal) {
        Ok(engine) => engine,
        Err(d) => {
            eprintln!("replay rejected: {d}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match engine.replay() {
        Ok(outcome) => {
            println!(
                "replay ok: {} frame(s) verified, {} attribute state(s)",
                outcome.frames_verified,
                outcome.record.attrs.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(d) => {
            eprintln!("divergence: {d}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn compact(args: &Args) -> Result<ExitCode, String> {
    let report = store::compact(&args.dir).map_err(|e| e.to_string())?;
    println!(
        "compacted {} segment(s) ({} bytes, {} records) -> {} segment(s) \
         ({} bytes, {} records), {} stale frame(s) dropped",
        report.segments_before,
        report.bytes_before,
        report.records_before,
        report.segments_after,
        report.bytes_after,
        report.records_after,
        report.frames_dropped
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "fsck" => fsck(&args),
        "ls" => ls(&args),
        "replay" => replay(&args),
        "compact" => compact(&args),
        other => Err(usage(&format!("unknown command {other:?}"))),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dflow-store: {e}");
            ExitCode::from(2)
        }
    }
}

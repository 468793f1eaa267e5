//! The journal regression corpus: blessed capture/replay baselines
//! that turn the flight-recorder subsystem into a behavioral
//! regression oracle.
//!
//! A *corpus* is a checked-in directory of canonical journals — one
//! entry per cell of a deterministic matrix of `dflowgen`-generated
//! flows × execution strategies — each stored with a [`EntryManifest`]
//! (schema fingerprint, strategy, seed, journal format version) and
//! its journal in the streaming wire format
//! ([`decisionflow::journal::read_journal`]).
//!
//! Three operations, mirrored by the `dflow-corpus` CLI:
//!
//! * [`record`] — capture every matrix cell from scratch into an
//!   empty directory (first-time setup);
//! * [`check`] — replay every stored journal through
//!   [`ReplayEngine`] *and* re-execute the cell live, demanding a
//!   byte-identical journal. Any disagreement is a [`Finding`]
//!   naming the entry, the first diverging logical clock, and the
//!   recorded-vs-observed frames — a behavioral regression caught at
//!   the exact control decision that changed;
//! * [`bless`] — re-capture the matrix and overwrite the baselines,
//!   reporting exactly what changed per entry ([`BlessStatus`]), so a
//!   deliberate engine change lands with an auditable diff.
//!
//! The matrix records **in-process** (unit-time executor), which is
//! fully deterministic for every flow shape — chains and fan-outs
//! alike — because completion delivery is ordered by the executor's
//! `(time, seq)` calendar, not by OS threads. (Server captures of
//! fan-out flows are tape-nondeterministic and therefore make poor
//! baselines; see the PR 3 note in `CHANGES.md`.)

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use decisionflow::api::Request;
use decisionflow::dsl::ExternRegistry;
use decisionflow::engine::Strategy;
use decisionflow::journal::{read_journal, schema_fingerprint, Frame, Journal, ReplayEngine};
use decisionflow::statestore::InstanceSnapshot;
use decisionflow::value::Value;
use dflowgen::{generate, GeneratedFlow, PatternParams};
use serde::{Deserialize, Serialize};

/// One cell of the corpus matrix: which flow to generate and which
/// strategy to execute it under.
#[derive(Clone, Debug)]
pub struct EntrySpec {
    /// Directory name of the entry (unique within the corpus).
    pub name: String,
    /// Generator parameters of the flow.
    pub params: PatternParams,
    /// Generator seed.
    pub seed: u64,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Capture as a **delta resubmission**: run the cell cold first,
    /// snapshot its completion, then record a resubmission of the
    /// identical sources against that snapshot. The blessed journal
    /// then opens with the adopted `Retained` frames (a full-reuse
    /// delta — generated flows are single-source, so any changed
    /// binding would empty the retained set), pinning the byte format
    /// of delta captures and the replay-side adoption path.
    pub delta: bool,
}

/// The default corpus matrix: two flow shapes (a pure chain and the
/// paper's 4-row fan-out grid) × all 8 strategy combinations ×
/// `%Permitted` ∈ {40, 100} — 32 entries covering every optimization
/// option (propagation, speculation, both heuristics) at partial and
/// full parallelism — plus a **delta-resubmission dimension**: both
/// shapes re-captured as full-reuse deltas under one conservative and
/// one speculative strategy, whose journals are all `Retained` frames.
pub fn default_matrix() -> Vec<EntrySpec> {
    let shapes = [
        (
            "chain",
            PatternParams {
                nb_nodes: 10,
                nb_rows: 1,
                pct_enabled: 75,
                ..Default::default()
            },
            4101,
        ),
        (
            "fanout",
            PatternParams {
                nb_nodes: 12,
                nb_rows: 4,
                pct_enabled: 60,
                ..Default::default()
            },
            4202,
        ),
    ];
    let mut out = Vec::new();
    for (shape, params, seed) in shapes {
        for permitted in [40u8, 100] {
            for strategy in Strategy::all_at(permitted) {
                out.push(EntrySpec {
                    name: format!("{shape}-{strategy}-s{seed}"),
                    params,
                    seed,
                    strategy,
                    delta: false,
                });
            }
        }
        for strategy_name in ["PCE100", "NSE40"] {
            let strategy: Strategy = strategy_name.parse().expect("known strategy");
            out.push(EntrySpec {
                name: format!("delta-{shape}-{strategy}-s{seed}"),
                params,
                seed,
                strategy,
                delta: true,
            });
        }
    }
    out
}

/// Per-entry metadata stored next to the journal, so `check` can
/// regenerate the flow and validate provenance without trusting the
/// journal bytes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EntryManifest {
    /// Entry name (matches the directory).
    pub name: String,
    /// Journal wire-format version at capture time.
    pub journal_version: u32,
    /// Structural fingerprint of the generated schema.
    pub schema_fingerprint: u64,
    /// Strategy string (e.g. `PSE100`).
    pub strategy: String,
    /// Generator seed.
    pub seed: u64,
    /// Generator parameters.
    pub params: PatternParams,
    /// Number of frames in the blessed journal.
    pub frames: u64,
    /// Response time of the blessed run, in units of processing.
    pub time_units: u64,
}

/// A corpus operation failed outright (IO, generation, execution) —
/// distinct from a [`Finding`], which is a successful check that
/// found a divergence.
#[derive(Debug)]
pub struct CorpusError(String);

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CorpusError {}

fn err(detail: impl std::fmt::Display) -> CorpusError {
    CorpusError(detail.to_string())
}

const MANIFEST_FILE: &str = "manifest.json";
const JOURNAL_FILE: &str = "journal.jsonl";

/// Capture one matrix cell: generate the flow, run it recorded, and
/// return the manifest plus the journal. Delta cells run cold
/// unrecorded first, then record the resubmission against the cold
/// completion's snapshot.
fn capture(spec: &EntrySpec) -> Result<(EntryManifest, Journal), CorpusError> {
    let flow: GeneratedFlow = generate(spec.params, spec.seed)
        .map_err(|e| err(format!("{}: generation failed: {e}", spec.name)))?;
    let mut request = Request::with_schema(Arc::clone(&flow.schema))
        .sources(flow.sources.clone())
        .strategy(spec.strategy)
        .record_journal(true);
    if spec.delta {
        let cold = Request::with_schema(Arc::clone(&flow.schema))
            .sources(flow.sources.clone())
            .strategy(spec.strategy)
            .run()
            .map_err(|e| err(format!("{}: cold seeding run failed: {e}", spec.name)))?;
        let prior = InstanceSnapshot::capture(&cold.outcome.runtime, spec.name.as_str());
        request = request.delta(Arc::new(prior));
    }
    let report = request
        .run()
        .map_err(|e| err(format!("{}: execution failed: {e}", spec.name)))?;
    let journal = report.journal.expect("journal requested");
    let manifest = EntryManifest {
        name: spec.name.clone(),
        journal_version: journal.version,
        schema_fingerprint: journal.schema_fingerprint,
        strategy: spec.strategy.to_string(),
        seed: spec.seed,
        params: spec.params,
        frames: journal.len() as u64,
        time_units: report.outcome.time_units,
    };
    Ok((manifest, journal))
}

fn write_entry(dir: &Path, manifest: &EntryManifest, journal: &Journal) -> Result<(), CorpusError> {
    let entry_dir = dir.join(&manifest.name);
    fs::create_dir_all(&entry_dir)
        .map_err(|e| err(format!("{}: mkdir failed: {e}", manifest.name)))?;
    fs::write(
        entry_dir.join(MANIFEST_FILE),
        serde::json::to_string(manifest) + "\n",
    )
    .map_err(|e| err(format!("{}: manifest write failed: {e}", manifest.name)))?;
    let file = fs::File::create(entry_dir.join(JOURNAL_FILE))
        .map_err(|e| err(format!("{}: journal create failed: {e}", manifest.name)))?;
    let mut w = BufWriter::new(file);
    journal
        .write_stream(&mut w)
        .map_err(|e| err(format!("{}: journal write failed: {e}", manifest.name)))?;
    Ok(())
}

fn read_entry(dir: &Path, name: &str) -> Result<(EntryManifest, Journal), String> {
    let entry_dir = dir.join(name);
    let manifest_raw = fs::read_to_string(entry_dir.join(MANIFEST_FILE))
        .map_err(|e| format!("manifest unreadable: {e}"))?;
    let manifest: EntryManifest =
        serde::json::from_str(&manifest_raw).map_err(|e| format!("manifest malformed: {e}"))?;
    let file = fs::File::open(entry_dir.join(JOURNAL_FILE))
        .map_err(|e| format!("journal unreadable: {e}"))?;
    let journal =
        read_journal(BufReader::new(file)).map_err(|e| format!("journal malformed: {e}"))?;
    Ok((manifest, journal))
}

/// Entry directories present on disk, sorted.
fn entry_dirs(dir: &Path) -> Result<Vec<String>, CorpusError> {
    let mut out = Vec::new();
    let rd = fs::read_dir(dir).map_err(|e| err(format!("cannot read {}: {e}", dir.display())))?;
    for e in rd {
        let e = e.map_err(|e| err(format!("cannot read {}: {e}", dir.display())))?;
        if e.path().is_dir() {
            out.push(e.file_name().to_string_lossy().into_owned());
        }
    }
    out.sort();
    Ok(out)
}

/// Record every matrix cell into `dir` (creating it), overwriting any
/// existing entries. Returns the entry names written.
pub fn record(dir: &Path, specs: &[EntrySpec]) -> Result<Vec<String>, CorpusError> {
    fs::create_dir_all(dir).map_err(|e| err(format!("cannot create corpus dir: {e}")))?;
    let mut written = Vec::with_capacity(specs.len());
    for spec in specs {
        let (manifest, journal) = capture(spec)?;
        write_entry(dir, &manifest, &journal)?;
        written.push(spec.name.clone());
    }
    Ok(written)
}

/// One divergence (or corpus-integrity problem) surfaced by [`check`].
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    /// The corpus entry concerned.
    pub entry: String,
    /// Which phase caught it: `load`, `manifest`, `coverage`,
    /// `replay`, or `rerun`.
    pub phase: String,
    /// First diverging logical clock, when frame-level.
    pub clock: Option<u64>,
    /// Human-readable description.
    pub detail: String,
    /// The blessed frame at `clock` (canonical JSON), when frame-level.
    pub recorded_frame: Option<String>,
    /// The frame the current engine produced at `clock` (canonical
    /// JSON), when frame-level.
    pub observed_frame: Option<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.phase, self.entry)?;
        if let Some(clock) = self.clock {
            write!(f, " @ clock {clock}")?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(rec) = &self.recorded_frame {
            write!(f, "\n    blessed:  {rec}")?;
        }
        if let Some(obs) = &self.observed_frame {
            write!(f, "\n    observed: {obs}")?;
        }
        Ok(())
    }
}

/// The structured result of a [`check`] run — serialized as the CI
/// divergence-report artifact.
#[derive(Debug, Serialize)]
pub struct CheckReport {
    /// Entries examined (present on disk or expected by the matrix).
    pub entries_checked: usize,
    /// Everything that diverged; empty means the corpus is green.
    pub findings: Vec<Finding>,
}

impl CheckReport {
    /// True when every entry replayed and re-executed identically.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering (one paragraph per finding).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            let _ = writeln!(
                out,
                "corpus check: {} entries, no divergence",
                self.entries_checked
            );
        } else {
            let _ = writeln!(
                out,
                "corpus check: {} entries, {} divergence(s):",
                self.entries_checked,
                self.findings.len()
            );
            for f in &self.findings {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }
}

/// First index at which two frame tapes disagree, if any (a shorter
/// tape that is a strict prefix diverges at its end).
fn first_frame_diff(blessed: &[Frame], observed: &[Frame]) -> Option<usize> {
    let shared = blessed.len().min(observed.len());
    (0..shared)
        .find(|&i| blessed[i] != observed[i])
        .or_else(|| (blessed.len() != observed.len()).then_some(shared))
}

fn frame_json(frames: &[Frame], i: usize) -> Option<String> {
    frames.get(i).map(serde::json::to_string)
}

/// Check one loaded entry against the current engine. Pushes findings;
/// returns early once a phase fails (later phases would only echo it).
/// `delta` comes from the matrix spec: the fresh rerun is a
/// [`capture`] of the cell the manifest describes.
fn check_entry(
    manifest: &EntryManifest,
    blessed: &Journal,
    delta: bool,
    findings: &mut Vec<Finding>,
) {
    let finding = |phase: &str, clock: Option<u64>, detail: String| Finding {
        entry: manifest.name.clone(),
        phase: phase.into(),
        clock,
        detail,
        recorded_frame: None,
        observed_frame: None,
    };

    // Manifest ↔ journal consistency: the journal bytes must be the
    // ones the manifest blessed.
    if blessed.version != manifest.journal_version
        || blessed.schema_fingerprint != manifest.schema_fingerprint
        || blessed.strategy != manifest.strategy
        || blessed.len() as u64 != manifest.frames
    {
        findings.push(finding(
            "manifest",
            None,
            format!(
                "journal disagrees with its manifest (version {}/{}, fingerprint {:#x}/{:#x}, \
                 strategy {}/{}, frames {}/{})",
                blessed.version,
                manifest.journal_version,
                blessed.schema_fingerprint,
                manifest.schema_fingerprint,
                blessed.strategy,
                manifest.strategy,
                blessed.len(),
                manifest.frames
            ),
        ));
        return;
    }

    // Regenerate the flow; the generator must still produce the
    // schema the journal was captured against.
    let flow = match generate(manifest.params, manifest.seed) {
        Ok(f) => f,
        Err(e) => {
            findings.push(finding("manifest", None, format!("generation failed: {e}")));
            return;
        }
    };
    let fp = schema_fingerprint(&flow.schema);
    if fp != manifest.schema_fingerprint {
        findings.push(finding(
            "manifest",
            None,
            format!(
                "generated schema fingerprint {fp:#x} != blessed {:#x} — \
                 dflowgen output drifted; bless the corpus if intentional",
                manifest.schema_fingerprint
            ),
        ));
        return;
    }

    // Phase 1 — replay identity: the current engine, re-driven by the
    // blessed tape, must re-derive every recorded frame.
    let replay = ReplayEngine::new(Arc::clone(&flow.schema), blessed.clone())
        .and_then(|engine| engine.replay());
    if let Err(d) = replay {
        findings.push(finding("replay", d.clock, d.to_string()));
        return;
    }

    // Phase 2 — fresh live run: re-execute the cell from scratch and
    // demand a byte-identical journal.
    let strategy: Strategy = match manifest.strategy.parse() {
        Ok(s) => s,
        Err(e) => {
            findings.push(finding("manifest", None, format!("bad strategy: {e}")));
            return;
        }
    };
    let spec = EntrySpec {
        name: manifest.name.clone(),
        params: manifest.params,
        seed: manifest.seed,
        strategy,
        delta,
    };
    let fresh = match capture(&spec) {
        Ok((_, journal)) => journal,
        Err(e) => {
            findings.push(finding("rerun", None, e.to_string()));
            return;
        }
    };
    if fresh.to_json() != blessed.to_json() {
        match first_frame_diff(&blessed.frames, &fresh.frames) {
            Some(i) => findings.push(Finding {
                entry: manifest.name.clone(),
                phase: "rerun".into(),
                clock: Some(i as u64),
                detail: format!(
                    "fresh run diverges from blessed journal at clock {i} \
                     ({} blessed vs {} fresh frames)",
                    blessed.len(),
                    fresh.len()
                ),
                recorded_frame: frame_json(&blessed.frames, i),
                observed_frame: frame_json(&fresh.frames, i),
            }),
            None => findings.push(finding(
                "rerun",
                None,
                "fresh run agrees frame-for-frame but journal headers differ \
                 (source bindings or response time drifted)"
                    .into(),
            )),
        }
    }
}

/// Replay-check every corpus entry against the current engine build.
///
/// `specs` is the expected matrix: entries missing from disk or
/// present but not in the matrix are `coverage` findings (the corpus
/// and the matrix must move together, so adding a strategy without
/// blessing fails loudly).
pub fn check(dir: &Path, specs: &[EntrySpec]) -> Result<CheckReport, CorpusError> {
    let on_disk = entry_dirs(dir)?;
    let mut findings = Vec::new();
    let expected: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    for spec in specs {
        if !on_disk.iter().any(|d| d == &spec.name) {
            findings.push(Finding {
                entry: spec.name.clone(),
                phase: "coverage".into(),
                clock: None,
                detail: "matrix entry missing from corpus — run `dflow-corpus bless`".into(),
                recorded_frame: None,
                observed_frame: None,
            });
        }
    }
    for name in &on_disk {
        if !expected.contains(&name.as_str()) {
            findings.push(Finding {
                entry: name.clone(),
                phase: "coverage".into(),
                clock: None,
                detail: "stale corpus entry not in the matrix — run `dflow-corpus bless`".into(),
                recorded_frame: None,
                observed_frame: None,
            });
            continue;
        }
        match read_entry(dir, name) {
            Err(detail) => findings.push(Finding {
                entry: name.clone(),
                phase: "load".into(),
                clock: None,
                detail,
                recorded_frame: None,
                observed_frame: None,
            }),
            Ok((manifest, blessed)) => {
                if manifest.name != *name {
                    findings.push(Finding {
                        entry: name.clone(),
                        phase: "manifest".into(),
                        clock: None,
                        detail: format!("manifest names {:?}", manifest.name),
                        recorded_frame: None,
                        observed_frame: None,
                    });
                    continue;
                }
                // invariant: `name` passed the `expected.contains` guard
                // above, so a matching spec exists.
                let delta = specs
                    .iter()
                    .find(|s| s.name == *name)
                    .expect("entry name verified against the matrix")
                    .delta;
                check_entry(&manifest, &blessed, delta, &mut findings);
            }
        }
    }
    // Examined = union of matrix cells and on-disk entries (missing
    // and stale ones both counted once).
    let mut examined: std::collections::BTreeSet<&str> = expected.iter().copied().collect();
    examined.extend(on_disk.iter().map(String::as_str));
    Ok(CheckReport {
        entries_checked: examined.len(),
        findings,
    })
}

/// What [`bless`] did to one entry.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum BlessStatus {
    /// Entry did not exist; baseline created.
    Added,
    /// Fresh capture is byte-identical to the blessed baseline.
    Unchanged,
    /// Baseline replaced.
    Updated {
        /// Frames in the previous baseline.
        old_frames: u64,
        /// Frames in the new baseline.
        new_frames: u64,
        /// First diverging clock, `None` when only the header changed.
        first_diff_clock: Option<u64>,
    },
    /// Entry on disk is not in the matrix; removed.
    Removed,
}

impl std::fmt::Display for BlessStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlessStatus::Added => write!(f, "added"),
            BlessStatus::Unchanged => write!(f, "unchanged"),
            BlessStatus::Updated {
                old_frames,
                new_frames,
                first_diff_clock,
            } => {
                write!(f, "updated ({old_frames} → {new_frames} frames")?;
                match first_diff_clock {
                    Some(c) => write!(f, ", first diff at clock {c})"),
                    None => write!(f, ", header only)"),
                }
            }
            BlessStatus::Removed => write!(f, "removed"),
        }
    }
}

/// The per-entry outcome of a [`bless`] run.
#[derive(Debug, Serialize)]
pub struct BlessSummary {
    /// `(entry, status)` in matrix order, removals last.
    pub entries: Vec<(String, BlessStatus)>,
}

impl BlessSummary {
    /// Number of entries whose baseline actually changed (added,
    /// updated, or removed).
    pub fn changed(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, s)| !matches!(s, BlessStatus::Unchanged))
            .count()
    }

    /// Human-readable rendering, one line per entry.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, status) in &self.entries {
            let _ = writeln!(out, "  {name}: {status}");
        }
        let _ = writeln!(
            out,
            "blessed {} entries, {} changed",
            self.entries.len(),
            self.changed()
        );
        out
    }
}

/// Re-capture every matrix cell and overwrite the baselines,
/// reporting exactly what changed. Entries on disk that left the
/// matrix are deleted.
pub fn bless(dir: &Path, specs: &[EntrySpec]) -> Result<BlessSummary, CorpusError> {
    fs::create_dir_all(dir).map_err(|e| err(format!("cannot create corpus dir: {e}")))?;
    let mut entries = Vec::new();
    for spec in specs {
        let (manifest, fresh) = capture(spec)?;
        let status = match read_entry(dir, &spec.name) {
            Err(_) => BlessStatus::Added,
            Ok((_, old)) if old.to_json() == fresh.to_json() => BlessStatus::Unchanged,
            Ok((_, old)) => BlessStatus::Updated {
                old_frames: old.len() as u64,
                new_frames: fresh.len() as u64,
                first_diff_clock: first_frame_diff(&old.frames, &fresh.frames).map(|i| i as u64),
            },
        };
        if status != BlessStatus::Unchanged {
            write_entry(dir, &manifest, &fresh)?;
        }
        entries.push((spec.name.clone(), status));
    }
    let expected: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    for name in entry_dirs(dir)? {
        if !expected.contains(&name.as_str()) {
            fs::remove_dir_all(dir.join(&name))
                .map_err(|e| err(format!("{name}: removal failed: {e}")))?;
            entries.push((name, BlessStatus::Removed));
        }
    }
    Ok(BlessSummary { entries })
}

/// Default corpus location: `corpus/` relative to the working
/// directory (the repository root in CI).
pub fn default_dir() -> PathBuf {
    PathBuf::from("corpus")
}

/// Null-returning stand-ins for every `extern <fn>` the DSL text
/// mentions, so `dflow-lint` and `dflow-store replay` parse a schema
/// without the host program's registry. The analyzer never calls task
/// bodies; a replayed journal whose flow calls externs reports a value
/// divergence at the first extern completion.
pub fn stub_externs(text: &str) -> ExternRegistry {
    let mut reg = ExternRegistry::new();
    let words: Vec<&str> = text.split_whitespace().collect();
    for w in words.windows(2) {
        if w[0] == "extern" {
            reg.register(w[1], |_: &[Value]| Value::Null);
        }
    }
    reg
}

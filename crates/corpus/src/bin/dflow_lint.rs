//! `dflow-lint` — run the [`decisionflow::analysis`] static analyzer
//! over whole families of schemas from the command line.
//!
//! ```text
//! dflow-lint corpus [--dir DIR] [--json FILE]
//!     regenerate every corpus entry's schema (from its manifest's
//!     generator params + seed) and lint each one
//! dflow-lint matrix [--seed S] [--kill ATTR] [--json FILE]
//!     lint the flows of the default corpus matrix (one per shape);
//!     --seed regenerates the shapes under a different seed, --kill
//!     rewrites the named attribute's enabling condition to `false`
//!     first — a deliberate dead-path injection for exercising the
//!     analyzer end to end
//! dflow-lint dsl [--json FILE] FILE...
//!     parse each DSL schema file and lint it; `extern` functions are
//!     stubbed, and build failures surface as their DF-coded findings
//! ```
//!
//! Findings print per schema in [`Report::to_text`] form; `--json`
//! additionally writes the structured reports to a file (the CI
//! artifact). Exit codes: `0` no findings at Warn or above, `1`
//! Warn/Error findings present, `2` usage or operational error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use decisionflow::analysis::{self, Code, Finding, Report, Severity};
use decisionflow::dsl::parse_schema;
use decisionflow::expr::Expr;
use decisionflow::schema::Schema;
use dflow_corpus::{default_dir, default_matrix, stub_externs, EntryManifest};
use dflowgen::generate;
use serde::Serialize;

/// One linted schema: where it came from and what the analyzer said.
#[derive(Serialize)]
struct UnitReport {
    /// Identity of the schema (corpus entry, matrix shape, or file).
    unit: String,
    /// The analyzer's report.
    report: Report,
}

/// The JSON artifact: every unit examined, findings and all.
#[derive(Serialize)]
struct LintReport {
    units: Vec<UnitReport>,
}

struct Args {
    command: String,
    dir: PathBuf,
    seed: Option<u64>,
    kill: Option<String>,
    json: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage(detail: &str) -> String {
    format!(
        "{detail}\nusage: dflow-lint <corpus|matrix|dsl> \
         [--dir DIR] [--seed S] [--kill ATTR] [--json FILE] [FILE...]"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| usage("missing command"))?;
    let mut args = Args {
        command,
        dir: default_dir(),
        seed: None,
        kill: None,
        json: None,
        files: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        let value = |argv: &mut dyn Iterator<Item = String>| {
            argv.next()
                .ok_or_else(|| usage(&format!("flag {flag:?} needs a value")))
        };
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(value(&mut argv)?),
            "--seed" => {
                args.seed = Some(
                    value(&mut argv)?
                        .parse()
                        .map_err(|e| usage(&format!("bad --seed: {e}")))?,
                )
            }
            "--kill" => args.kill = Some(value(&mut argv)?),
            "--json" => args.json = Some(PathBuf::from(value(&mut argv)?)),
            _ if flag.starts_with("--") => return Err(usage(&format!("unknown flag {flag:?}"))),
            _ => args.files.push(PathBuf::from(flag)),
        }
    }
    Ok(args)
}

/// Rebuild `schema` with the enabling condition of `victim` replaced
/// by `false` — the canonical "statically dead attribute" mutation.
fn kill_attr(schema: &Schema, victim: &str) -> Result<Arc<Schema>, String> {
    let vid = schema
        .lookup(victim)
        .ok_or_else(|| format!("--kill: no attribute named {victim:?}"))?;
    if schema.is_source(vid) {
        return Err(format!("--kill: {victim:?} is a source (no condition)"));
    }
    let mut b = decisionflow::schema::SchemaBuilder::new();
    for a in schema.attr_ids() {
        let def = schema.attr(a);
        let id = if def.task.is_source() {
            b.source(def.name.clone())
        } else {
            let enabling = if a == vid {
                Expr::Lit(false)
            } else {
                def.enabling.clone()
            };
            b.attr(
                def.name.clone(),
                def.task.clone(),
                def.inputs.clone(),
                enabling,
            )
        };
        debug_assert_eq!(id, a, "rebuild preserves attribute ids");
        if def.target {
            b.mark_target(id);
        }
    }
    b.build()
        .map(Arc::new)
        .map_err(|e| format!("mutated schema failed to build: {e}"))
}

/// Lint every corpus entry by regenerating its schema from the
/// manifest's generator params + seed (the journal bytes are not
/// trusted — same policy as `dflow-corpus check`).
fn lint_corpus(dir: &Path) -> Result<Vec<UnitReport>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for e in rd {
        let e = e.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        if e.path().is_dir() {
            names.push(e.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    if names.is_empty() {
        return Err(format!("no corpus entries under {}", dir.display()));
    }
    let mut units = Vec::new();
    for name in names {
        let manifest_path = dir.join(&name).join("manifest.json");
        let raw = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{name}: manifest unreadable: {e}"))?;
        let manifest: EntryManifest =
            serde::json::from_str(&raw).map_err(|e| format!("{name}: manifest malformed: {e}"))?;
        let flow = generate(manifest.params, manifest.seed)
            .map_err(|e| format!("{name}: generation failed: {e}"))?;
        units.push(UnitReport {
            unit: name,
            report: analysis::check(&flow.schema),
        });
    }
    Ok(units)
}

/// Lint the flows of the default matrix — one unit per distinct
/// (params, seed) shape, since the strategy axis does not change the
/// schema.
fn lint_matrix(seed: Option<u64>, kill: Option<&str>) -> Result<Vec<UnitReport>, String> {
    let mut units = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for spec in default_matrix() {
        // Entry names are `<shape>-<strategy>-s<seed>`; one lint per
        // shape suffices — the strategy axis never changes the schema,
        // and delta-resubmission cells reuse a base shape's schema.
        if spec.delta {
            continue;
        }
        let shape = spec.name.split('-').next().unwrap_or("shape").to_string();
        if seen.contains(&shape) {
            continue;
        }
        seen.push(shape.clone());
        let seed = seed.unwrap_or(spec.seed);
        let flow =
            generate(spec.params, seed).map_err(|e| format!("{shape}: generation failed: {e}"))?;
        let schema = match kill {
            Some(victim) => kill_attr(&flow.schema, victim)?,
            None => flow.schema,
        };
        let unit = match kill {
            Some(victim) => format!("{shape}-s{seed}-kill-{victim}"),
            None => format!("{shape}-s{seed}"),
        };
        units.push(UnitReport {
            unit,
            report: analysis::check(&schema),
        });
    }
    Ok(units)
}

fn lint_dsl(files: &[PathBuf]) -> Result<Vec<UnitReport>, String> {
    if files.is_empty() {
        return Err(usage("dsl: at least one FILE"));
    }
    let mut units = Vec::new();
    for path in files {
        let unit = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{unit}: {e}"))?;
        let report = match parse_schema(&text, &stub_externs(&text)) {
            Ok(schema) => analysis::check(&schema),
            // Build failures come through as DF-coded messages
            // (`SchemaError::code` prefixes Display); re-lift them
            // into a structured finding. Plain parse errors are
            // operational.
            Err(e) => match Code::from_str_code(e.message.get(..5).unwrap_or_default()) {
                Some(code) => Report {
                    findings: vec![Finding {
                        code,
                        severity: Severity::Error,
                        attr: None,
                        module: None,
                        message: e.message.clone(),
                        details: Vec::new(),
                    }],
                    summary: Default::default(),
                },
                None => return Err(format!("{unit}: parse failed: {e}")),
            },
        };
        units.push(UnitReport { unit, report });
    }
    Ok(units)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let units = match args.command.as_str() {
        "corpus" => lint_corpus(&args.dir)?,
        "matrix" => lint_matrix(args.seed, args.kill.as_deref())?,
        "dsl" => lint_dsl(&args.files)?,
        other => return Err(usage(&format!("unknown command {other:?}"))),
    };
    let mut worst = None::<Severity>;
    for u in &units {
        println!("== {}", u.unit);
        print!("{}", u.report.to_text());
        worst = worst.max(u.report.worst());
    }
    let failed = worst >= Some(Severity::Warn);
    println!(
        "dflow-lint: {} schema(s), {}",
        units.len(),
        if failed {
            "findings at warn or above"
        } else {
            "clean (at warn threshold)"
        }
    );
    if let Some(path) = &args.json {
        let artifact = LintReport { units };
        std::fs::write(path, serde::json::to_string(&artifact) + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dflow-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shapes_lint_clean_at_warn_threshold() {
        let units = lint_matrix(None, None).unwrap();
        assert_eq!(units.len(), 2, "two distinct shapes in the matrix");
        for u in &units {
            assert!(
                u.report.at_or_above(Severity::Warn).next().is_none(),
                "{}: unexpected findings:\n{}",
                u.unit,
                u.report.to_text()
            );
        }
    }

    #[test]
    fn killed_attribute_is_flagged_by_name() {
        let units = lint_matrix(None, Some("n0_1")).unwrap();
        let flagged = units.iter().any(|u| {
            u.report.findings.iter().any(|f| {
                f.code == Code::DeadAttr
                    && f.severity >= Severity::Warn
                    && f.attr.as_deref() == Some("n0_1")
            })
        });
        assert!(flagged, "DF001 must name the dead attribute");
    }

    #[test]
    fn kill_rejects_unknown_and_source_attrs() {
        assert!(lint_matrix(None, Some("no_such_attr")).is_err());
        assert!(lint_matrix(None, Some("source")).is_err());
    }

    #[test]
    fn dsl_build_failures_become_coded_findings() {
        let dir = std::env::temp_dir().join("dflow_lint_dsl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no_targets.dfs");
        std::fs::write(&path, "source s\n").unwrap();
        let units = lint_dsl(&[path]).unwrap();
        assert_eq!(units[0].report.findings[0].code, Code::NoTargets);
        assert!(units[0].report.has_errors());
    }
}

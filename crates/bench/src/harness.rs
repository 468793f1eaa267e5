//! Shared experiment plumbing: table printing, CSV emission and the
//! command line of the gated sweeps.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Command line of the gated sweeps (`shard_scaling`, `delta_speedup`,
/// `fig9b`).
#[derive(Default)]
pub struct Args {
    /// `--smoke`: the reduced, CI-sized run, with its floors asserted.
    pub smoke: bool,
    /// `--json PATH`: also write the result table as a JSON snapshot.
    pub json: Option<PathBuf>,
    /// `--prom PATH`: also write the last run's telemetry in Prometheus
    /// text exposition format.
    pub prom: Option<PathBuf>,
}

/// Parse `--smoke`, `--json PATH` and — for the one sweep that writes
/// it, `with_prom` — `--prom PATH`. Panics on anything else.
pub fn parse_args(with_prom: bool) -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut path = || match args.next() {
            Some(path) => Some(PathBuf::from(path)),
            None => panic!("{flag} needs a file path"),
        };
        match flag.as_str() {
            "--smoke" => parsed.smoke = true,
            "--json" => parsed.json = path(),
            "--prom" if with_prom => parsed.prom = path(),
            other => panic!(
                "unknown flag {other:?} (expected --smoke / --json PATH{})",
                if with_prom { " / --prom PATH" } else { "" }
            ),
        }
    }
    parsed
}

/// A simple column-oriented results table that prints aligned text and
/// writes CSV next to the experiment outputs.
pub struct ResultTable {
    pub(crate) title: String,
    pub(crate) headers: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Start a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> ResultTable {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let hdr: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", hdr.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(hdr.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render as a JSON snapshot: `{"title": .., "rows": [{col: cell,
    /// ..}, ..]}` — the `BENCH_*.json` format CI publishes into job
    /// summaries so the perf trajectory is grep-able across runs.
    pub fn to_json(&self) -> String {
        use serde::Content;
        let rows: Vec<Content> = self
            .rows
            .iter()
            .map(|row| {
                Content::Map(
                    self.headers
                        .iter()
                        .zip(row)
                        .map(|(h, c)| (h.clone(), Content::Str(c.clone())))
                        .collect(),
                )
            })
            .collect();
        let doc = Content::Map(vec![
            ("title".to_string(), Content::Str(self.title.clone())),
            ("rows".to_string(), Content::Seq(rows)),
        ]);
        serde::json::to_string(&doc)
    }

    /// Write the JSON snapshot to `path` (see
    /// [`ResultTable::to_json`]). IO failures are reported but
    /// non-fatal, matching [`ResultTable::emit`].
    pub fn emit_json(&self, path: &Path) {
        if let Err(e) = std::fs::write(path, self.to_json() + "\n") {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("(json written to {})", path.display());
        }
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Print the text table to stdout and write the CSV beside the
    /// repository's experiment outputs (`results/<name>.csv`). IO
    /// failures are reported but non-fatal: the printed table is the
    /// primary artifact.
    pub fn emit(&self, csv_name: &str) {
        println!("{}", self.to_text());
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create results dir: {e}");
            return;
        }
        let path = dir.join(csv_name);
        if let Err(e) = std::fs::write(&path, self.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("(csv written to {})", path.display());
        }
    }
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = ResultTable::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "long-cell".into()]);
        t.row(vec!["200".into(), "b".into()]);
        let text = t.to_text();
        assert!(text.contains("## demo"));
        assert!(text.contains("long-cell"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "x,y");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_rejected() {
        let mut t = ResultTable::new("demo", &["x", "y"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.256), "1.26");
    }

    #[test]
    fn json_snapshot_keys_rows_by_header() {
        let mut t = ResultTable::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "a".into()]);
        t.row(vec!["2".into(), "b".into()]);
        let json = t.to_json();
        assert_eq!(
            json,
            r#"{"title":"demo","rows":[{"x":"1","y":"a"},{"x":"2","y":"b"}]}"#
        );
        // And it parses back as a content tree.
        let parsed = serde::json::parse(&json).unwrap();
        let rows = parsed
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "rows"))
            .and_then(|(_, v)| v.as_seq())
            .unwrap();
        assert_eq!(rows.len(), 2);
    }
}

//! `srclint` — source-convention lint for the hot path.
//!
//! Mechanical conventions the code review keeps re-litigating, checked
//! in CI instead:
//!
//! * **No bare `.unwrap()`** in hot-path files (`decisionflow`'s
//!   `server.rs`, `api.rs` and everything under `server/`, `engine/`,
//!   `store/`, and `statestore/`): a worker, shard, or WAL-appender
//!   thread panicking
//!   takes instances with it, so every panic site must be a
//!   documented `.expect(..)`.
//! * **Every `.expect(` in those files carries a `// invariant:`
//!   comment** on the same or the previous line, naming why the value
//!   is always there.
//! * **Every non-`Relaxed` atomic ordering** (`SeqCst`, `Acquire`,
//!   `Release`, `AcqRel`) anywhere in `decisionflow/src` carries a
//!   `// ordering:` comment on the same or the previous line, naming
//!   what the ordering pairs with.
//! * **Every fsync site** (`.sync_all(` / `.sync_data(`) anywhere in
//!   `decisionflow/src` carries a `// durability:` comment on the
//!   same or the previous line, naming what the sync makes durable —
//!   fsyncs are the WAL's only persistence points *and* its dominant
//!   cost, so each one must justify itself.
//!
//! Test modules (everything from the first `#[cfg(test)]` to end of
//! file — the whole file when it opens with `#![cfg(test)]`) and
//! comment lines are exempt — tests may unwrap freely.
//!
//! ```text
//! cargo run -p dflow-bench --bin srclint
//! ```
//!
//! Exits 0 when clean, 1 with one `file:line: message` per violation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Repo root, computed from this crate's manifest dir (crates/bench)
/// so the lint works from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Hot-path files: a panic here unwinds a shard worker or a WAL
/// appender lane.
fn hot_path_files(root: &Path) -> Vec<PathBuf> {
    let src = root.join("crates/decisionflow/src");
    // api.rs carries the event hub, whose publish runs on every
    // submission and completion, so it lints at hot-path strictness.
    let mut files = vec![src.join("server.rs"), src.join("api.rs")];
    for dir in ["server", "engine", "store", "statestore"] {
        let dir = src.join(dir);
        let entries =
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("readable dir entry").path();
            if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Every `.rs` file under `crates/decisionflow/src`, recursively.
fn all_decisionflow_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates/decisionflow/src")];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The non-test, non-comment lines of a file: `(line_number, text)`.
/// Everything from the first `#[cfg(test)]` (or, for a file that is
/// wholly a test module, `#![cfg(test)]`) onward is test code.
fn lintable_lines(source: &str) -> Vec<(usize, &str)> {
    source
        .lines()
        .take_while(|l| {
            let l = l.trim_start();
            !l.starts_with("#[cfg(test)]") && !l.starts_with("#![cfg(test)]")
        })
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .collect()
}

/// Does the annotation appear on this line (after any code) or in the
/// contiguous `//` comment block immediately above it?
fn annotated(lines: &[(usize, &str)], idx: usize, source: &str, marker: &str) -> bool {
    let (lineno, line) = lines[idx];
    if line.contains(marker) {
        return true;
    }
    // Walk the preceding comment block (comment lines were filtered
    // out of `lines`, so consult the raw text).
    let raw: Vec<&str> = source.lines().collect();
    let mut i = lineno - 1; // index of the flagged line in `raw`
    while i > 0 && raw[i - 1].trim_start().starts_with("//") {
        i -= 1;
        if raw[i].contains(marker) {
            return true;
        }
    }
    false
}

const ORDERINGS: [&str; 4] = [
    "Ordering::SeqCst",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

fn lint_file(path: &Path, hot: bool, violations: &mut Vec<String>) {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rel = path.display();
    let lines = lintable_lines(&source);
    for (idx, &(lineno, line)) in lines.iter().enumerate() {
        if hot && line.contains(".unwrap()") {
            violations.push(format!(
                "{rel}:{lineno}: bare `.unwrap()` on the hot path — use `.expect(..)` \
                 with a `// invariant:` comment"
            ));
        }
        if hot && line.contains(".expect(") && !annotated(&lines, idx, &source, "// invariant:") {
            violations.push(format!(
                "{rel}:{lineno}: `.expect(` without a `// invariant:` comment on this \
                 or the previous line"
            ));
        }
        if ORDERINGS.iter().any(|o| line.contains(o))
            && !annotated(&lines, idx, &source, "// ordering:")
        {
            violations.push(format!(
                "{rel}:{lineno}: non-Relaxed atomic ordering without a `// ordering:` \
                 comment on this or the previous line"
            ));
        }
        if (line.contains(".sync_all(") || line.contains(".sync_data("))
            && !annotated(&lines, idx, &source, "// durability:")
        {
            violations.push(format!(
                "{rel}:{lineno}: fsync without a `// durability:` comment on this or \
                 the previous line naming what it makes durable"
            ));
        }
    }
}

fn main() -> ExitCode {
    let root = repo_root();
    let hot: Vec<PathBuf> = hot_path_files(&root);
    let mut violations = Vec::new();
    for path in all_decisionflow_files(&root) {
        lint_file(&path, hot.contains(&path), &mut violations);
    }
    if violations.is_empty() {
        println!("srclint: clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("srclint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

//! The repository benchmark (`benchmark/`, a stand-alone crate with its
//! own `Cargo.lock`) compiles against the workspace's public API. This
//! test builds it the way the benchmark's runner does — `--offline`,
//! `--locked` so a changed dependency edge cannot rewrite its lock file,
//! and `--all-targets` so its unit tests count too — and fails with
//! cargo's errors when a renamed method, a re-typed field or a new
//! dependency breaks it.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_crate_compiles_against_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO"))
        .args([
            "check",
            "--all-targets",
            "--offline",
            "--locked",
            "--manifest-path",
        ])
        .arg(root.join("benchmark/Cargo.toml"))
        .env("CARGO_TARGET_DIR", root.join("target/benchmark-surface"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "benchmark/ no longer compiles against the workspace:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

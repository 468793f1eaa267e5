//! The paper's figures, recomputed and compared with their committed
//! `paper/<name>.txt`. A failure names the figure, table, row and column
//! of every changed cell; if the change is intended, rewrite the files
//! with `cargo run --release -p dflow-bench --bin dflow-paper` and commit
//! them with it.

use dflow_bench::paper::{diff, path, FIGURES};

fn check(name: &str) {
    let (_, compute) = FIGURES
        .iter()
        .find(|(figure, _)| *figure == name)
        .expect("a figure of that name");
    let committed = std::fs::read_to_string(path(name)).ok();
    let changes = diff(name, committed.as_deref(), &compute());
    assert!(
        changes.is_empty(),
        "{name} no longer matches paper/{name}.txt:\n{}",
        changes.join("\n")
    );
}

#[test]
fn table1() {
    check("table1");
}

#[test]
fn fig5a() {
    check("fig5a");
}

#[test]
fn fig5b() {
    check("fig5b");
}

#[test]
fn fig6() {
    check("fig6");
}

#[test]
fn fig7() {
    check("fig7");
}

#[test]
fn fig8() {
    check("fig8");
}

#[test]
fn fig9a() {
    check("fig9a");
}

#[test]
fn fig9b() {
    check("fig9b");
}

#[test]
fn ablation() {
    check("ablation");
}

/// `paper/` holds one file per figure and nothing else, so a renamed or
/// dropped figure cannot leave a stale table behind.
#[test]
fn paper_holds_exactly_the_figures() {
    let dir = path("x").parent().expect("paper/").to_path_buf();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("paper/ exists")
        .map(|entry| {
            entry
                .expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    files.sort();
    let mut expected: Vec<String> = FIGURES
        .iter()
        .map(|(name, _)| format!("{name}.txt"))
        .collect();
    expected.sort();
    assert_eq!(files, expected);
}

//! `dflow-paper`: recompute every figure of the paper
//! (`dflow_bench::paper::FIGURES`), rewrite its `paper/<name>.txt`, and
//! print each figure as `unchanged` or its changed cells — the same diff
//! `tests/paper.rs` fails on.

use dflow_bench::paper::{diff, path, render, FIGURES};

fn main() {
    for (name, compute) in FIGURES {
        let tables = compute();
        let file = path(name);
        let committed = std::fs::read_to_string(&file).ok();
        let changes = diff(name, committed.as_deref(), &tables);
        std::fs::write(&file, render(&tables))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", file.display()));
        if changes.is_empty() {
            println!("{name}: unchanged");
        }
        for change in changes {
            println!("{change}");
        }
    }
}

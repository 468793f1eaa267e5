//! The corpus as a regression oracle, end to end:
//!
//! * a freshly recorded corpus checks green against the same engine;
//! * a deliberately perturbed scheduling decision — the blessed tape
//!   rewritten as if the scheduler's tie-break had flipped — makes
//!   `check` fail with a divergence naming the entry and the exact
//!   logical clock;
//! * coverage drift (matrix grew, or stale entries linger) and
//!   truncated journals fail loudly;
//! * `bless` reports exactly what changed.

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

use decisionflow::engine::Strategy;
use decisionflow::journal::{read_journal, schema_fingerprint, Event};
use dflow_corpus::{bless, check, default_matrix, record, BlessStatus, EntryManifest, EntrySpec};
use dflowgen::PatternParams;

/// Fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dflow-corpus-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small matrix: one fan-out flow under two strategies with enough
/// parallelism that scheduling rounds pick several tasks (so a
/// tie-break flip is expressible).
fn small_matrix() -> Vec<EntrySpec> {
    let params = PatternParams {
        nb_nodes: 12,
        nb_rows: 4,
        pct_enabled: 60,
        ..Default::default()
    };
    ["PSE100", "PCE100"]
        .iter()
        .map(|s| {
            let strategy: Strategy = s.parse().unwrap();
            EntrySpec {
                name: format!("fanout-{strategy}-s7"),
                params,
                seed: 7,
                strategy,
                delta: false,
            }
        })
        .collect()
}

#[test]
fn pristine_corpus_checks_green() {
    let dir = scratch("pristine");
    let matrix = small_matrix();
    let written = record(&dir, &matrix).unwrap();
    assert_eq!(written.len(), 2);
    let report = check(&dir, &matrix).unwrap();
    assert!(
        report.passed(),
        "pristine corpus diverged:\n{}",
        report.to_text()
    );
    assert_eq!(report.entries_checked, 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_matrix_records_and_checks_green() {
    let dir = scratch("default-matrix");
    let matrix = default_matrix();
    assert_eq!(
        matrix.len(),
        36,
        "2 shapes × (8 strategies × 2 %Permitted + 2 delta cells)"
    );
    record(&dir, &matrix).unwrap();
    let report = check(&dir, &matrix).unwrap();
    assert!(report.passed(), "{}", report.to_text());
    fs::remove_dir_all(&dir).ok();
}

/// The acceptance-criteria scenario: an engine whose scheduler
/// tie-break flipped. We simulate it from the corpus side — the
/// blessed tape is rewritten with the picks of one scheduling round
/// reversed, which is exactly the journal that flipped engine would
/// have blessed. `check` against the *current* engine must fail with
/// a divergence naming the entry and the clock of that round.
#[test]
fn flipped_tie_break_fails_check_at_the_exact_clock() {
    let dir = scratch("flipped");
    let matrix = small_matrix();
    record(&dir, &matrix).unwrap();

    let entry = &matrix[0].name;
    let journal_path = dir.join(entry).join("journal.jsonl");
    let mut journal = read_journal(BufReader::new(fs::File::open(&journal_path).unwrap())).unwrap();

    // Find a round that picked at least two tasks and reverse its
    // launch order — the tie-break flip. The frames that follow
    // (launches in pick order) are left alone: a real engine change
    // would alter them too, but the divergence must already fire at
    // the round frame itself.
    let (idx, flipped) = journal
        .frames
        .iter()
        .enumerate()
        .find_map(|(i, f)| match &f.event {
            Event::Round {
                round,
                candidates,
                picked,
            } if picked.len() >= 2 => {
                let mut rev = picked.clone();
                rev.reverse();
                Some((
                    i,
                    Event::Round {
                        round: *round,
                        candidates: candidates.clone(),
                        picked: rev,
                    },
                ))
            }
            _ => None,
        })
        .expect("a multi-pick round exists under %Permitted=100");
    journal.frames[idx].event = flipped;
    let mut bytes = Vec::new();
    journal.write_stream(&mut bytes).unwrap();
    fs::write(&journal_path, bytes).unwrap();

    let report = check(&dir, &matrix).unwrap();
    assert!(!report.passed(), "flipped tie-break must diverge");
    let finding = report
        .findings
        .iter()
        .find(|f| &f.entry == entry)
        .expect("finding names the perturbed entry");
    assert_eq!(
        finding.clock,
        Some(idx as u64),
        "divergence pinned to the flipped round's logical clock: {finding}"
    );
    assert!(
        finding.phase == "replay" || finding.phase == "rerun",
        "frame-level phase, got {}",
        finding.phase
    );
    // The untouched entry stays green.
    assert!(
        report.findings.iter().all(|f| &f.entry == entry),
        "only the perturbed entry diverges"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_journal_is_a_load_finding() {
    let dir = scratch("truncated");
    let matrix = small_matrix();
    record(&dir, &matrix).unwrap();
    let journal_path = dir.join(&matrix[0].name).join("journal.jsonl");
    let text = fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Drop the footer: the capture looks unsealed.
    fs::write(&journal_path, lines[..lines.len() - 1].join("\n")).unwrap();
    let report = check(&dir, &matrix).unwrap();
    let finding = report
        .findings
        .iter()
        .find(|f| f.entry == matrix[0].name)
        .expect("truncated journal surfaces");
    assert_eq!(finding.phase, "load");
    assert!(finding.detail.contains("footer"), "{}", finding.detail);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn coverage_drift_is_flagged_both_ways() {
    let dir = scratch("coverage");
    let mut matrix = small_matrix();
    record(&dir, &matrix).unwrap();

    // Matrix grows: the new cell has no baseline yet.
    let extra_strategy: Strategy = "NCE40".parse().unwrap();
    matrix.push(EntrySpec {
        name: format!("fanout-{extra_strategy}-s7"),
        params: matrix[0].params,
        seed: 7,
        strategy: extra_strategy,
        delta: false,
    });
    let report = check(&dir, &matrix).unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| f.phase == "coverage" && f.detail.contains("missing")));

    // Corpus holds an entry the matrix no longer has.
    matrix.remove(2);
    matrix.remove(0);
    let report = check(&dir, &matrix).unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| f.phase == "coverage" && f.detail.contains("stale")));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bless_reports_added_unchanged_updated_and_removed() {
    let dir = scratch("bless");
    let mut matrix = small_matrix();

    // First bless on an empty dir: everything is added.
    let summary = bless(&dir, &matrix).unwrap();
    assert!(summary
        .entries
        .iter()
        .all(|(_, s)| *s == BlessStatus::Added));
    assert_eq!(summary.changed(), 2);

    // Second bless with nothing changed: everything unchanged.
    let summary = bless(&dir, &matrix).unwrap();
    assert!(summary
        .entries
        .iter()
        .all(|(_, s)| *s == BlessStatus::Unchanged));
    assert_eq!(summary.changed(), 0);

    // Tamper one baseline, then bless: reported as updated with the
    // first diverging clock.
    let journal_path = dir.join(&matrix[0].name).join("journal.jsonl");
    let mut journal = read_journal(BufReader::new(fs::File::open(&journal_path).unwrap())).unwrap();
    journal.frames.truncate(journal.frames.len() / 2);
    let mut bytes = Vec::new();
    journal.write_stream(&mut bytes).unwrap();
    fs::write(&journal_path, bytes).unwrap();
    let summary = bless(&dir, &matrix).unwrap();
    let (_, status) = summary
        .entries
        .iter()
        .find(|(n, _)| n == &matrix[0].name)
        .unwrap();
    assert!(
        matches!(
            status,
            BlessStatus::Updated {
                first_diff_clock: Some(_),
                ..
            }
        ),
        "tampered baseline re-blessed: {status:?}"
    );
    // And the corpus is green again afterwards.
    assert!(check(&dir, &matrix).unwrap().passed());

    // Shrink the matrix: bless removes the stale entry.
    let dropped = matrix.pop().unwrap();
    let summary = bless(&dir, &matrix).unwrap();
    assert!(summary
        .entries
        .iter()
        .any(|(n, s)| n == &dropped.name && *s == BlessStatus::Removed));
    assert!(!dir.join(&dropped.name).exists());
    fs::remove_dir_all(&dir).ok();
}

/// Delta cells capture deterministically: the blessed journal of a
/// full-reuse resubmission is a strict prefix of `Retained` frames
/// with no driver events, it replays green through the same
/// `check` path as cold cells, and re-recording is byte-stable.
#[test]
fn delta_entries_capture_retained_frames_and_check_green() {
    let dir = scratch("delta");
    let strategy: Strategy = "PSE100".parse().unwrap();
    let matrix = vec![EntrySpec {
        name: format!("delta-fanout-{strategy}-s7"),
        params: PatternParams {
            nb_nodes: 12,
            nb_rows: 4,
            pct_enabled: 60,
            ..Default::default()
        },
        seed: 7,
        strategy,
        delta: true,
    }];
    record(&dir, &matrix).unwrap();

    let file = fs::File::open(dir.join(&matrix[0].name).join("journal.jsonl")).unwrap();
    let journal = read_journal(BufReader::new(file)).unwrap();
    assert!(!journal.frames.is_empty(), "full reuse still adopts values");
    assert!(
        matches!(journal.frames[0].event, Event::Retained { .. }),
        "a delta journal opens with the adopted Retained prefix"
    );
    for frame in &journal.frames {
        assert!(
            !matches!(frame.event, Event::Round { .. } | Event::Complete { .. }),
            "a full-reuse delta recomputes nothing, got driver event {:?}",
            frame.event
        );
    }

    assert!(check(&dir, &matrix).unwrap().passed());

    // Re-recording the same cell is byte-stable (snapshot capture and
    // adoption introduce no nondeterminism).
    let summary = bless(&dir, &matrix).unwrap();
    assert!(summary
        .entries
        .iter()
        .all(|(_, s)| *s == BlessStatus::Unchanged));
    fs::remove_dir_all(&dir).ok();
}

/// The checked-in corpus under `corpus/` at the repository root must
/// stay green for the engine in this tree — the same gate CI runs via
/// `dflow-corpus check`, wired into the test suite so plain
/// `cargo test` catches behavioral regressions too.
#[test]
fn checked_in_corpus_is_green() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    assert!(
        dir.is_dir(),
        "checked-in corpus missing at {}; run `dflow-corpus record`",
        dir.display()
    );
    let report = check(&dir, &default_matrix()).unwrap();
    assert!(report.passed(), "{}", report.to_text());
}

/// `schema_fingerprint` is cached on the `Schema`; the cached value is
/// bit-identical to the one a blessed manifest pinned for the same
/// generated flow, however often it is asked for.
#[test]
fn schema_fingerprint_matches_blessed_manifest_and_is_stable() {
    let entry = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/chain-PCC100-s4101");
    let manifest: EntryManifest =
        serde::json::from_str(&fs::read_to_string(entry.join("manifest.json")).unwrap()).unwrap();
    let flow = dflowgen::generate(manifest.params, manifest.seed).unwrap();
    for _ in 0..3 {
        assert_eq!(
            schema_fingerprint(&flow.schema),
            manifest.schema_fingerprint
        );
    }
}

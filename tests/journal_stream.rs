//! Stream-format properties over generated Table 1 flows.
//!
//! For random schema patterns and seeds, under **all 8 strategy
//! combinations × %Permitted ∈ {0, 50, 100}**:
//!
//! * writing a captured journal as a stream and reading it back
//!   reconstructs a `Journal` equal to the capture, and its canonical
//!   JSON serialization is **byte-identical**;
//! * the tape read back replays through `ReplayEngine` exactly like
//!   the capture it was written from;
//! * a tape cut short anywhere (no footer) is rejected on read.

use std::sync::Arc;

use decision_flows::decisionflow::journal::{read_journal, Journal, JournalError, ReplayEngine};
use decision_flows::dflowgen::{generate, GeneratedFlow, PatternParams};
use decision_flows::prelude::{Request, Strategy as EngineStrategy};
use proptest::prelude::*;

fn arb_params() -> impl proptest::strategy::Strategy<Value = (PatternParams, u64)> {
    (
        6usize..24, // nb_nodes
        1usize..5,  // nb_rows
        prop::sample::select(vec![0u32, 25, 50, 75, 100]),
        any::<u64>(), // seed
    )
        .prop_map(|(nodes, rows, pct_enabled, seed)| {
            (
                PatternParams {
                    nb_nodes: nodes,
                    nb_rows: rows.min(nodes),
                    pct_enabled,
                    ..Default::default()
                },
                seed,
            )
        })
}

/// One buffered capture of `flow` and its stream rendering.
fn captured(flow: &GeneratedFlow, strategy: EngineStrategy) -> (Journal, Vec<u8>) {
    let journal = Request::with_schema(Arc::clone(&flow.schema))
        .sources(flow.sources.clone())
        .strategy(strategy)
        .record_journal(true)
        .run()
        .unwrap_or_else(|e| panic!("{strategy}: {e}"))
        .journal
        .expect("buffered journal");
    let mut bytes = Vec::new();
    journal.write_stream(&mut bytes).expect("writing to memory");
    (journal, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stream write → read is byte-identical to the in-memory
    /// `Journal` serialization, for every strategy and parallelism
    /// level.
    #[test]
    fn stream_roundtrip_matches_buffered_capture(params_seed in arb_params()) {
        let (params, seed) = params_seed;
        let flow = generate(params, seed).expect("valid pattern");
        for permitted in [0u8, 50, 100] {
            for strategy in EngineStrategy::all_at(permitted) {
                let (buffered, bytes) = captured(&flow, strategy);
                let streamed = read_journal(&bytes[..])
                    .unwrap_or_else(|e| panic!("{strategy}: sealed stream unreadable: {e}"));
                prop_assert_eq!(&streamed, &buffered, "{} journal", strategy);
                prop_assert_eq!(
                    streamed.to_json(),
                    buffered.to_json(),
                    "{} canonical JSON bytes", strategy
                );

                // Writing what was read gives the bytes that were read.
                let mut rewritten = Vec::new();
                streamed.write_stream(&mut rewritten).unwrap();
                prop_assert_eq!(&rewritten, &bytes, "{} stream bytes", strategy);
            }
        }
    }

    /// The tape is a faithful flight record: read back, it replays to
    /// completion; cut after any line but the last, it is rejected.
    #[test]
    fn streamed_tape_replays_and_truncation_is_detected(params_seed in arb_params()) {
        let (params, seed) = params_seed;
        let flow = generate(params, seed).expect("valid pattern");
        let (_, bytes) = captured(&flow, "PSE100".parse().unwrap());
        let journal = read_journal(&bytes[..]).expect("sealed stream parses");
        let replayed = ReplayEngine::new(Arc::clone(&flow.schema), journal.clone())
            .expect("header valid")
            .replay()
            .unwrap_or_else(|d| panic!("streamed tape diverged: {d}"));
        prop_assert!(replayed.frames_verified == journal.frames.len());

        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 1..lines.len() {
            let cut = lines[..keep].join("\n");
            prop_assert!(matches!(
                read_journal(cut.as_bytes()),
                Err(JournalError::Malformed(_))
            ), "tape cut after line {} must be rejected", keep);
        }
    }
}

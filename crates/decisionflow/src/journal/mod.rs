//! Deterministic execution journal: a capture/replay flight recorder
//! for decision-flow instances.
//!
//! The engine of §3 stabilizes targets under eager propagation and
//! speculative scheduling — concurrent, order-dependent execution that
//! is hard to audit or regression-test after the fact. This subsystem
//! records every control decision of one instance into a versioned,
//! serializable [`Journal`] and re-executes it **byte-for-byte
//! deterministically**:
//!
//! * the runtime owns its recorder, a [`JournalWriter`], by value and
//!   emits every event into it itself — engine events (condition
//!   verdicts, unneeded detections, launches, stabilizations) and the
//!   two nondeterministic inputs the drivers feed it: scheduling rounds
//!   (candidate pool + picks, from
//!   [`InstanceRuntime::round`](crate::engine::InstanceRuntime::round))
//!   and task-completion delivery order. No recorder is the default,
//!   so the un-journaled hot path pays one `Option` test per event
//!   site;
//! * the recorder stamps each event with the instance's one logical
//!   clock and hands the same [`Frame`] to each of its two outputs the
//!   request asked for — memory ([`Request::record_journal`]) and the
//!   durable store's WAL ([`Request::durable`]). **Sealing** — when
//!   the driver takes the instance's result — freezes the memory
//!   journal and appends the WAL's `InstanceSealed`, and the runtime
//!   gives the recorder up, so stragglers landing afterwards are
//!   missing from both outputs alike;
//! * a tape file is a rendering, not an output: [`Journal::write_stream`]
//!   writes a finished journal as JSON-lines plus a trailing footer,
//!   and [`read_journal`] reads it back into a [`Journal`] equal to the
//!   one written, byte-for-byte;
//! * [`ReplayEngine`] re-runs the instance from the journal alone
//!   (plus the schema, since task bodies are code), re-deriving every
//!   engine event and cross-checking it against the recorded stream —
//!   any disagreement yields a structured [`Divergence`] rather than a
//!   panic;
//! * journals serialize to canonical JSON ([`Journal::to_json`]) with
//!   a schema-version field checked on load, and replay also verifies
//!   a structural fingerprint of the schema, so a journal can never be
//!   silently replayed against the wrong flow.
//!
//! [`Request::record_journal`]: crate::api::Request::record_journal
//! [`Request::durable`]: crate::api::Request::durable
//!
//! Capture entry point: a [`Request`] with
//! [`record_journal(true)`](crate::api::Request::record_journal) —
//! via [`api::run`] for the unit-time executor, or
//! [`EngineServer::submit`] for the multi-threaded server (which makes
//! even truly concurrent runs exactly reproducible, because the only
//! nondeterminism — completion order — is on the tape).
//!
//! [`Request`]: crate::api::Request
//! [`api::run`]: crate::api::run
//! [`EngineServer::submit`]: crate::server::EngineServer::submit

mod divergence;
mod frame;
mod replay;
mod stream;
mod writer;

pub use divergence::{Divergence, DivergenceKind};
pub use frame::{Clock, Event, Frame};
pub use replay::{ReplayEngine, ReplayOutcome};
pub use stream::read_journal;
pub(crate) use writer::Outputs;
pub use writer::{bind_sources, JournalWriter};

use serde::{Deserialize, Serialize};

use crate::schema::Schema;
use crate::value::Value;

/// Version of the journal wire format. Bump on any change to
/// [`Frame`]/[`Event`]/[`Journal`] shape; [`Journal::from_json`] and
/// [`ReplayEngine::new`] refuse mismatched versions.
pub const SCHEMA_VERSION: u32 = 1;

/// A complete, serializable flight record of one instance execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    /// Wire-format version ([`SCHEMA_VERSION`] at capture time).
    pub version: u32,
    /// Strategy string (e.g. `PSE80`) the instance ran under.
    pub strategy: String,
    /// Whether backward propagation was disabled (ablation option).
    pub disable_backward: bool,
    /// Structural fingerprint of the schema (names, roles, costs,
    /// edges, conditions) — replay refuses a different schema.
    pub schema_fingerprint: u64,
    /// Source bindings, `(name, value)` in schema source order.
    pub sources: Vec<(String, Value)>,
    /// Driver-reported response time in the driver's own unit —
    /// units of processing for the unit-time executor; always 0 for
    /// server captures (journals are wall-clock free; the server's
    /// latency lives in `InstanceResult::elapsed`). Informational.
    pub time: u64,
    /// The recorded frames, clock order.
    pub frames: Vec<Frame>,
}

/// Failure to load a journal from its serialized form.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalError {
    /// The payload is not a valid journal document.
    Malformed(String),
    /// The journal's version is not supported by this build.
    Version {
        /// Version found in the document.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Malformed(e) => write!(f, "malformed journal: {e}"),
            JournalError::Version { found, supported } => {
                write!(f, "journal version {found} unsupported (need {supported})")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl Journal {
    /// Serialize to canonical JSON. Equal journals yield
    /// byte-identical strings (map order is fixed, floats use
    /// shortest-round-trip formatting).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Load from JSON, enforcing the schema-version check before
    /// anything else is interpreted.
    pub fn from_json(s: &str) -> Result<Journal, JournalError> {
        let content = serde::json::parse(s).map_err(|e| JournalError::Malformed(e.to_string()))?;
        let version = content
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "version"))
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| JournalError::Malformed("missing version field".into()))?;
        let version = u32::try_from(version)
            .map_err(|_| JournalError::Malformed("version out of range".into()))?;
        if version != SCHEMA_VERSION {
            return Err(JournalError::Version {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }
        serde::Deserialize::from_content(&content)
            .map_err(|e| JournalError::Malformed(e.to_string()))
    }

    /// Number of recorded frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames were recorded (instance decided at init).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Structural fingerprint of a schema: attribute names, roles, costs,
/// data edges and enabling conditions, order-sensitively mixed. Task
/// *bodies* are code and cannot be fingerprinted; replay instead
/// verifies every produced value against the journal.
///
/// Computed at most once per [`Schema`] value (on first use) and cached
/// on it, so the server, the snapshot store and the journal writer can
/// all ask per instance.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    schema.fingerprint_or_init(|| compute_fingerprint(schema))
}

fn compute_fingerprint(schema: &Schema) -> u64 {
    fn mix(h: u64, x: u64) -> u64 {
        let mut z = h ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
        h = mix(h, bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h, u64::from_le_bytes(word));
        }
        h
    }

    let mut h = mix(0xD6E8_FEB8_6659_FD93, schema.len() as u64);
    for a in schema.attr_ids() {
        let def = schema.attr(a);
        h = mix_bytes(h, def.name.as_bytes());
        h = mix(h, def.target as u64);
        h = mix(h, schema.is_source(a) as u64);
        h = mix(h, schema.cost(a));
        for &i in &def.inputs {
            h = mix(h, i.index() as u64 + 1);
        }
        // Enabling conditions serialize structurally; hash that form.
        h = mix_bytes(h, serde::json::to_string(&def.enabling).as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::api::Request;
    use crate::engine::{Strategy, UnitOutcome};
    use crate::expr::{CmpOp, Expr};
    use crate::journal::frame::Event;
    use crate::schema::{AttrId, SchemaBuilder};
    use crate::snapshot::{complete_snapshot, SourceValues};
    use crate::task::Task;
    use crate::value::Value;

    /// The §4 promo cascade plus a speculative gate — exercises every
    /// event type under the right strategies.
    fn fixture() -> (Arc<Schema>, SourceValues) {
        let mut b = SchemaBuilder::new();
        let income = b.source("income");
        let gate = b.attr(
            "gate",
            Task::const_query(10, 1i64),
            vec![],
            Expr::cmp_const(income, CmpOp::Gt, 0i64),
        );
        let hit = b.attr(
            "hit_list",
            Task::const_query(5, "coats"),
            vec![],
            Expr::Lit(true),
        );
        let images = b.attr(
            "images",
            Task::const_query(3, "img"),
            vec![hit],
            Expr::cmp_const(gate, CmpOp::Gt, 0i64),
        );
        let asm = b.attr(
            "assembly",
            Task::const_query(2, "page"),
            vec![images],
            Expr::Truthy(gate),
        );
        b.mark_target(asm);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(income, 500i64);
        (schema, sv)
    }

    fn strat(s: &str) -> Strategy {
        s.parse().unwrap()
    }

    /// Capture one in-process run through the unified request API.
    fn recorded(
        schema: &Arc<Schema>,
        strategy: Strategy,
        sv: &SourceValues,
    ) -> (UnitOutcome, Journal) {
        let report = Request::with_schema(Arc::clone(schema))
            .sources(sv.clone())
            .strategy(strategy)
            .record_journal(true)
            .run()
            .unwrap();
        (report.outcome, report.journal.expect("journal requested"))
    }

    #[test]
    fn capture_records_all_event_kinds() {
        let (schema, sv) = fixture();
        let (_, journal) = recorded(&schema, strat("PSE100"), &sv);
        let tags: std::collections::HashSet<&str> =
            journal.frames.iter().map(|f| f.event.tag()).collect();
        for expected in ["round", "launch", "complete", "cond", "stable"] {
            assert!(tags.contains(expected), "missing {expected}: {tags:?}");
        }
        // Clocks are dense from zero.
        for (i, f) in journal.frames.iter().enumerate() {
            assert_eq!(f.clock, i as Clock);
        }
        assert_eq!(journal.version, SCHEMA_VERSION);
        assert_eq!(journal.strategy, "PSE100");
    }

    #[test]
    fn replay_reproduces_record_byte_for_byte() {
        let (schema, sv) = fixture();
        for s in ["PCE0", "PSE100", "NCE50", "NSC100"] {
            let (out, journal) = recorded(&schema, strat(s), &sv);
            let original =
                crate::report::ExecutionRecord::from_runtime(&out.runtime, out.time_units);
            let replayed = ReplayEngine::new(Arc::clone(&schema), journal.clone())
                .unwrap()
                .replay()
                .unwrap_or_else(|d| panic!("{s}: {d}"));
            assert_eq!(replayed.record, original, "{s}");
            assert_eq!(
                replayed.journal, journal,
                "{s}: re-captured journal differs"
            );
            assert_eq!(
                serde::json::to_string(&replayed.record),
                serde::json::to_string(&original),
                "{s}: serialized records differ"
            );
            let snap = complete_snapshot(&schema, &sv).unwrap();
            assert!(replayed.runtime.agrees_with(&snap));
        }
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let (schema, sv) = fixture();
        let (_, journal) = recorded(&schema, strat("PSE100"), &sv);
        let json = journal.to_json();
        let back = Journal::from_json(&json).unwrap();
        assert_eq!(back, journal);
        assert_eq!(back.to_json(), json, "canonical JSON must round-trip bytes");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (schema, sv) = fixture();
        let (_, mut journal) = recorded(&schema, strat("PCE0"), &sv);
        journal.version = SCHEMA_VERSION + 1;
        let err = Journal::from_json(&journal.to_json()).unwrap_err();
        assert_eq!(
            err,
            JournalError::Version {
                found: SCHEMA_VERSION + 1,
                supported: SCHEMA_VERSION
            }
        );
        let div = ReplayEngine::new(Arc::clone(&schema), journal).unwrap_err();
        assert!(matches!(div.kind, DivergenceKind::VersionMismatch { .. }));
    }

    #[test]
    fn wrong_schema_is_rejected_by_fingerprint() {
        let (schema, sv) = fixture();
        let (_, journal) = recorded(&schema, strat("PCE0"), &sv);
        let mut b = SchemaBuilder::new();
        let s = b.source("income");
        let t = b.attr("t", Task::const_query(1, 1i64), vec![], Expr::Truthy(s));
        b.mark_target(t);
        let other = Arc::new(b.build().unwrap());
        let div = ReplayEngine::new(other, journal).unwrap_err();
        assert!(matches!(
            div.kind,
            DivergenceKind::SchemaFingerprintMismatch { .. }
        ));
    }

    #[test]
    fn perturbed_value_yields_structured_divergence() {
        let (schema, sv) = fixture();
        let (_, mut journal) = recorded(&schema, strat("PCE0"), &sv);
        let idx = journal
            .frames
            .iter()
            .position(|f| matches!(f.event, Event::Complete { .. }))
            .expect("a completion frame");
        if let Event::Complete { value, .. } = &mut journal.frames[idx].event {
            *value = Value::str("tampered");
        }
        let div = ReplayEngine::new(Arc::clone(&schema), journal)
            .unwrap()
            .replay()
            .unwrap_err();
        assert_eq!(div.clock, Some(idx as Clock));
        assert!(matches!(div.kind, DivergenceKind::ValueMismatch { .. }));
    }

    #[test]
    fn truncated_journal_yields_divergence_not_panic() {
        let (schema, sv) = fixture();
        let (_, mut journal) = recorded(&schema, strat("PSE100"), &sv);
        journal.frames.truncate(journal.frames.len() / 2);
        // Either the tape ends where the engine still emits (frame
        // mismatch) or a driver event is missing — both structured.
        let res = ReplayEngine::new(Arc::clone(&schema), journal)
            .unwrap()
            .replay();
        assert!(res.is_err(), "truncated journal must not replay cleanly");
    }

    #[test]
    fn swapped_completions_yield_divergence() {
        let (schema, sv) = fixture();
        let (_, mut journal) = recorded(&schema, strat("PCE100"), &sv);
        let completes: Vec<usize> = journal
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f.event, Event::Complete { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(completes.len() >= 2, "need two completions to swap");
        let (a, b) = (completes[0], completes[1]);
        let ev_a = journal.frames[a].event.clone();
        let ev_b = journal.frames[b].event.clone();
        journal.frames[a].event = ev_b;
        journal.frames[b].event = ev_a;
        let div = ReplayEngine::new(Arc::clone(&schema), journal)
            .unwrap()
            .replay()
            .unwrap_err();
        assert!(div.clock.is_some(), "frame-level divergence: {div}");

        // A scheduling round edited on the tape is named as such, at
        // the round's own clock — not reported as a bare frame mismatch.
        let (_, journal) = recorded(&schema, strat("PCE100"), &sv);
        let idx = journal
            .frames
            .iter()
            .position(|f| matches!(&f.event, Event::Round { picked, .. } if !picked.is_empty()))
            .expect("a round that picked something");
        let tampered = |edit: fn(&mut Vec<AttrId>, &mut Vec<AttrId>)| {
            let mut journal = journal.clone();
            if let Event::Round {
                candidates, picked, ..
            } = &mut journal.frames[idx].event
            {
                edit(candidates, picked);
            }
            ReplayEngine::new(Arc::clone(&schema), journal)
                .unwrap()
                .replay()
                .unwrap_err()
        };
        let div = tampered(|candidates, _| candidates.push(candidates[0]));
        assert_eq!(div.clock, Some(idx as Clock));
        assert!(
            matches!(div.kind, DivergenceKind::CandidateMismatch { .. }),
            "{div}"
        );
        let div = tampered(|_, picked| {
            picked.pop();
        });
        assert_eq!(div.clock, Some(idx as Clock));
        assert!(
            matches!(div.kind, DivergenceKind::PickMismatch { .. }),
            "{div}"
        );

        // A round the live engine never ran (empty pool, so it emits no
        // frame) is refuted at its clock; replay must not wait on it.
        let mut padded = journal.clone();
        let end = padded.frames.len() as Clock;
        padded.frames.push(Frame {
            clock: end,
            event: Event::Round {
                round: u32::MAX,
                candidates: vec![],
                picked: vec![],
            },
        });
        let engine = ReplayEngine::new(Arc::clone(&schema), padded).unwrap();
        let div = engine.replay().unwrap_err();
        assert_eq!(div.clock, Some(end));
        assert!(
            matches!(
                div.kind,
                DivergenceKind::FrameMismatch { replayed: None, .. }
            ),
            "{div}"
        );
        assert_eq!(engine.step_to(end + 1).err().unwrap().clock, Some(end));
    }

    #[test]
    fn step_to_exposes_intermediate_state() {
        let (schema, sv) = fixture();
        let (out, journal) = recorded(&schema, strat("PCE0"), &sv);
        let engine = ReplayEngine::new(Arc::clone(&schema), journal.clone()).unwrap();
        // At clock 0 nothing has happened yet (not even init frames).
        let rt0 = engine.step_to(0).unwrap();
        assert!(!rt0.is_complete() || out.runtime.is_complete());
        // Walking the full tape step by step must reach completion.
        let rt_end = engine.step_to(journal.frames.len() as Clock).unwrap();
        assert!(rt_end.is_complete());
        // Strictly monotone progress: stable count never decreases.
        let mut last_stable = 0usize;
        for clock in 0..=journal.frames.len() {
            let rt = engine.step_to(clock as Clock).unwrap();
            let stable = schema
                .attr_ids()
                .filter(|&a| rt.state(a).is_stable())
                .count();
            assert!(stable >= last_stable, "stable count regressed at {clock}");
            last_stable = stable;
        }
    }

    #[test]
    fn empty_instance_journal_replays() {
        // Target disabled at init: no rounds, engine events only.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = b.attr(
            "t",
            Task::const_query(5, 1i64),
            vec![],
            Expr::cmp_const(s, CmpOp::Gt, 10i64),
        );
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 3i64);
        let (out, journal) = recorded(&schema, strat("PCE100"), &sv);
        assert_eq!(out.work(), 0);
        assert!(journal.frames.iter().all(|f| !f.event.is_driver_event()));
        let replayed = ReplayEngine::new(Arc::clone(&schema), journal)
            .unwrap()
            .replay()
            .unwrap();
        assert!(replayed.runtime.is_complete());
    }

    #[test]
    fn fingerprint_sensitive_to_structure() {
        let (schema, _) = fixture();
        let base = schema_fingerprint(&schema);
        assert_eq!(base, schema_fingerprint(&schema), "deterministic");

        let mut b = SchemaBuilder::new();
        let income = b.source("income");
        // Same shape, one cost changed.
        let gate = b.attr(
            "gate",
            Task::const_query(11, 1i64),
            vec![],
            Expr::cmp_const(income, CmpOp::Gt, 0i64),
        );
        let hit = b.attr(
            "hit_list",
            Task::const_query(5, "coats"),
            vec![],
            Expr::Lit(true),
        );
        let images = b.attr(
            "images",
            Task::const_query(3, "img"),
            vec![hit],
            Expr::cmp_const(gate, CmpOp::Gt, 0i64),
        );
        let asm = b.attr(
            "assembly",
            Task::const_query(2, "page"),
            vec![images],
            Expr::Truthy(gate),
        );
        b.mark_target(asm);
        let other = b.build().unwrap();
        assert_ne!(base, schema_fingerprint(&other));
    }

    #[test]
    fn ablation_options_are_recorded_and_replayed() {
        use crate::engine::RuntimeOptions;
        let (schema, sv) = fixture();
        let report = Request::with_schema(Arc::clone(&schema))
            .sources(sv.clone())
            .strategy(strat("PCE0"))
            .options(RuntimeOptions {
                disable_backward: true,
            })
            .record_journal(true)
            .run()
            .unwrap();
        let (out, journal) = (report.outcome, report.journal.unwrap());
        assert!(journal.disable_backward);
        let replayed = ReplayEngine::new(Arc::clone(&schema), journal)
            .unwrap()
            .replay()
            .unwrap();
        assert_eq!(
            replayed.record,
            crate::report::ExecutionRecord::from_runtime(&out.runtime, out.time_units)
        );
    }
}

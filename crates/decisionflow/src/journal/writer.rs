//! Journal capture: the one flight recorder.
//!
//! A [`JournalWriter`] is owned by value by the
//! [`InstanceRuntime`](crate::engine::InstanceRuntime) it records, so
//! every event reaches it under whatever already serialises the
//! runtime (a `&mut` borrow in-process, the instance lock on the
//! server) and crosses no lock of its own. It stamps each event with
//! the instance's one logical clock, once, and hands the same
//! [`Frame`] to each output the request asked for:
//!
//! * **memory** — frames accumulate and [`seal`](JournalWriter::seal)
//!   freezes them into a [`Journal`];
//! * **WAL** — each frame is appended to the instance's
//!   [`EventStore`](crate::store::EventStore) lane, and seal appends
//!   its `InstanceSealed` record.
//!
//! Sealing consumes the writer: the runtime gives its recorder up when
//! the instance's result is delivered, so late speculative stragglers
//! emit into nothing — on both outputs alike, which is what keeps a
//! journal rebuilt from the WAL byte-equal to the one captured live.

use crate::engine::strategy::Strategy;
use crate::journal::frame::{Clock, Event, Frame};
use crate::journal::{schema_fingerprint, Journal, SCHEMA_VERSION};
use crate::schema::Schema;
use crate::snapshot::SourceValues;
use crate::store::{SealOutcome, WalRecorder};
use crate::value::Value;

/// The journal header's source bindings for one instance of `schema`:
/// the bound values in **schema source order**, named. This is the
/// single definition of the header's `sources` field — live capture
/// ([`JournalWriter`]) and the durable store's journal reconstruction
/// ([`crate::store::fetch_journal`]) both go through it, which is what
/// makes a reconstructed tape byte-identical to the captured one.
pub fn bind_sources(schema: &Schema, sources: &SourceValues) -> Vec<(String, Value)> {
    let mut bound: Vec<(String, Value)> = Vec::with_capacity(schema.sources().len());
    for &s in schema.sources() {
        if let Some(v) = sources.get(s) {
            bound.push((schema.attr(s).name.clone(), v.clone()));
        }
    }
    bound
}

/// Where a recording goes; either, both or — by default — neither.
#[derive(Default)]
pub(crate) struct Outputs {
    /// Buffer the frames, to be frozen into a [`Journal`] at seal.
    pub memory: bool,
    /// Append the frames to this store lane (whose acceptance record
    /// the caller has already appended).
    pub wal: Option<WalRecorder>,
}

/// The flight recorder of one instance execution.
pub struct JournalWriter {
    /// The header fields, plus the frames while the memory output is on.
    journal: Journal,
    /// Next clock value (= number of frames recorded).
    clock: Clock,
    memory: bool,
    wal: Option<WalRecorder>,
}

impl JournalWriter {
    /// Start an in-memory journal for one instance of `schema` under
    /// `strategy`.
    ///
    /// `sources` must be the exact bindings the instance runs with;
    /// they are embedded in the journal so replay needs nothing else.
    pub fn new(schema: &Schema, strategy: Strategy, sources: &SourceValues) -> JournalWriter {
        let memory = Outputs {
            memory: true,
            ..Outputs::default()
        };
        JournalWriter::with_outputs(schema, strategy, sources, false, memory)
    }

    /// Start a journal with an explicit set of [`Outputs`].
    /// `disable_backward` is the ablation option the instance runs
    /// with; it is part of the header.
    pub(crate) fn with_outputs(
        schema: &Schema,
        strategy: Strategy,
        sources: &SourceValues,
        disable_backward: bool,
        Outputs { memory, wal }: Outputs,
    ) -> JournalWriter {
        JournalWriter {
            journal: Journal {
                version: SCHEMA_VERSION,
                strategy: strategy.to_string(),
                disable_backward,
                schema_fingerprint: schema_fingerprint(schema),
                sources: bind_sources(schema, sources),
                time: 0,
                frames: Vec::new(),
            },
            clock: 0,
            memory,
            wal,
        }
    }

    /// Frames held by the memory output so far (always empty without
    /// it — the frames are in the WAL).
    pub fn frames(&self) -> &[Frame] {
        &self.journal.frames
    }

    /// The WAL output, if any: the server's abandonment path seals an
    /// instance that never delivered through it.
    pub(crate) fn wal(&self) -> Option<&WalRecorder> {
        self.wal.as_ref()
    }

    /// Record one event: stamp it with the next clock value and hand
    /// the frame to each output.
    pub fn record(&mut self, event: Event) {
        let frame = Frame {
            clock: self.clock,
            event,
        };
        self.clock += 1;
        match (&self.wal, self.memory) {
            (Some(wal), true) => {
                wal.frame(frame.clone());
                self.journal.frames.push(frame);
            }
            (Some(wal), false) => wal.frame(frame),
            (None, true) => self.journal.frames.push(frame),
            (None, false) => {}
        }
    }

    /// Seal the recording: append the WAL's `InstanceSealed { outcome }`
    /// and freeze the memory output, if it was on, into a [`Journal`]
    /// stamped with the driver-reported response time (`time` is in
    /// the driver's unit — processing units for the unit-time
    /// executor, 0 for the server).
    pub(crate) fn seal(mut self, time: u64, outcome: SealOutcome) -> Option<Journal> {
        if let Some(wal) = &self.wal {
            wal.seal(outcome);
        }
        self.journal.time = time;
        self.memory.then_some(self.journal)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::{InstanceRuntime, RuntimeOptions, RuntimeScratch};
    use crate::expr::Expr;
    use crate::schema::SchemaBuilder;
    use crate::store::{EventStore, PersistedRequest, StoreEvent};
    use crate::task::Task;

    /// One recorder, both outputs, driven through the runtime that
    /// owns it: what is recorded before the seal is on each output
    /// with the same clocks, what happens after it on neither.
    #[test]
    fn recorder_outputs_agree_and_seal_once() {
        // Naive mode never prunes, so `extra` (and `tail` behind it)
        // run although only `t` is a target: stragglers by design.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let t = b.attr("t", Task::const_query(1, "page"), vec![s], Expr::Lit(true));
        let extra = b.attr(
            "extra",
            Task::const_query(5, 1i64),
            vec![s],
            Expr::Lit(true),
        );
        b.attr(
            "tail",
            Task::const_query(1, 2i64),
            vec![extra],
            Expr::Lit(true),
        );
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 7i64);
        let strategy: Strategy = "NCE100".parse().unwrap();

        let dir = std::env::temp_dir().join(format!("dflow-recorder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(EventStore::open(&dir).unwrap());
        let accepted = PersistedRequest {
            instance_id: 3,
            schema: "flow".into(),
            strategy: strategy.to_string(),
            disable_backward: false,
            schema_fingerprint: schema_fingerprint(&schema),
            sources: bind_sources(&schema, &sv),
            label: None,
            deadline_ms: None,
        };
        store
            .append(0, StoreEvent::RequestAccepted { request: accepted })
            .unwrap();
        let recorder = JournalWriter::with_outputs(
            &schema,
            strategy,
            &sv,
            false,
            Outputs {
                memory: true,
                wal: Some(WalRecorder::new(Arc::clone(&store), 0, 3, 0)),
            },
        );
        let mut rt = InstanceRuntime::with_options_retained(
            Arc::clone(&schema),
            strategy,
            &sv,
            &[],
            RuntimeOptions::default(),
            Some(recorder),
            RuntimeScratch::default(),
        )
        .unwrap();

        let mut launches = Vec::new();
        rt.round(&mut launches);
        let target = launches.iter().position(|(a, _)| *a == t).unwrap();
        let (a, inputs) = launches.swap_remove(target);
        rt.complete(a, schema.attr(a).task.compute(&inputs));
        assert!(rt.is_complete() && !rt.is_sealed());
        let sealed = rt.seal(0, SealOutcome::Completed);
        assert!(rt.is_sealed() && !rt.recording());
        let memory = sealed.expect("the memory output");
        for (i, f) in memory.frames.iter().enumerate() {
            assert_eq!(f.clock, i as Clock, "clocks dense from 0");
        }

        // Stragglers: a late completion, then a whole further round.
        for (a, inputs) in launches.drain(..) {
            rt.complete(a, schema.attr(a).task.compute(&inputs));
        }
        rt.round(&mut launches);
        assert!(!launches.is_empty(), "`tail` launched after the seal");
        // The second seal finds nothing left to seal.
        assert!(rt.seal(9, SealOutcome::Abandoned).is_none());

        assert_eq!(store.fetch_journal(3).unwrap(), memory);
        let report = store.fsck().unwrap();
        assert!(report.ok(), "{}", report.to_text());
        assert_eq!(report.sealed, 1, "one InstanceSealed on the lane");
        drop(rt);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

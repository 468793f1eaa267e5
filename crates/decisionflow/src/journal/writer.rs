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
//! * **tape** — each frame is serialized to an [`io::Write`] sink the
//!   moment it is recorded (the wire format of
//!   [`crate::journal::stream`]), so the capture holds O(1) frames
//!   however long the instance runs, and seal writes the footer;
//!   [`read_journal`](crate::journal::read_journal) reconstructs a
//!   `Journal` equal to what the memory output would have held;
//! * **WAL** — each frame is appended to the instance's
//!   [`EventStore`](crate::store::EventStore) lane, and seal appends
//!   its `InstanceSealed` record.
//!
//! Sealing consumes the writer: the runtime gives its recorder up when
//! the instance's result is delivered, so late speculative stragglers
//! emit into nothing — on every output alike, which is what keeps a
//! journal rebuilt from the WAL byte-equal to the one captured live.

use std::io;

use crate::engine::strategy::Strategy;
use crate::journal::frame::{Clock, Event, Frame};
use crate::journal::{schema_fingerprint, stream, Journal, SCHEMA_VERSION};
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

/// The tape output: the sink plus the first IO error it reported. IO
/// errors never reach the engine hot path — the first one is latched,
/// later lines are skipped, and it surfaces from
/// [`JournalWriter::seal`].
struct Tape {
    sink: Box<dyn io::Write + Send>,
    error: Option<io::Error>,
}

impl Tape {
    fn put(&mut self, line: impl FnOnce(&mut dyn io::Write) -> io::Result<()>) {
        if self.error.is_none() {
            self.error = line(&mut self.sink).err();
        }
    }
}

/// What sealing a recording hands back.
#[derive(Default)]
pub(crate) struct Sealed {
    /// The frozen journal, when the memory output was on.
    pub journal: Option<Journal>,
    /// The first IO error the tape's sink reported at any point of the
    /// capture. The tape then has no footer, so readers reject it as
    /// truncated; the other outputs are complete regardless.
    pub tape_error: Option<io::Error>,
}

/// Where a recording goes; any subset, none by default.
#[derive(Default)]
pub(crate) struct Outputs {
    /// Buffer the frames, to be frozen into a [`Journal`] at seal.
    pub memory: bool,
    /// Stream header, frames and footer to this sink.
    pub tape: Option<Box<dyn io::Write + Send>>,
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
    tape: Option<Tape>,
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

    /// Start a journal with an explicit set of [`Outputs`] (the tape's
    /// header line goes out here). `disable_backward` is the ablation
    /// option the instance runs with; it is part of the header.
    pub(crate) fn with_outputs(
        schema: &Schema,
        strategy: Strategy,
        sources: &SourceValues,
        disable_backward: bool,
        Outputs { memory, tape, wal }: Outputs,
    ) -> JournalWriter {
        let journal = Journal {
            version: SCHEMA_VERSION,
            strategy: strategy.to_string(),
            disable_backward,
            schema_fingerprint: schema_fingerprint(schema),
            sources: bind_sources(schema, sources),
            time: 0,
            frames: Vec::new(),
        };
        let tape = tape.map(|sink| {
            let mut tape = Tape { sink, error: None };
            tape.put(|w| {
                stream::write_header(
                    w,
                    &journal.strategy,
                    journal.disable_backward,
                    journal.schema_fingerprint,
                    &journal.sources,
                )
            });
            tape
        });
        JournalWriter {
            journal,
            clock: 0,
            memory,
            tape,
            wal,
        }
    }

    /// Frames held by the memory output so far (always empty without
    /// it — the frames are on the tape or in the WAL).
    pub fn frames(&self) -> &[Frame] {
        &self.journal.frames
    }

    /// The WAL output, if any: the server's abandonment path seals an
    /// instance that never delivered through it.
    pub(crate) fn wal(&self) -> Option<&WalRecorder> {
        self.wal.as_ref()
    }

    /// Record one event: stamp it with the next clock value and hand
    /// the frame to every output.
    pub fn record(&mut self, event: Event) {
        let frame = Frame {
            clock: self.clock,
            event,
        };
        self.clock += 1;
        if let Some(tape) = &mut self.tape {
            tape.put(|w| stream::write_frame(w, &frame));
        }
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

    /// Seal the recording: freeze the memory output into a [`Journal`]
    /// stamped with the driver-reported response time (`time` is in
    /// the driver's unit — processing units for the unit-time
    /// executor, 0 for the server), write the tape's footer and flush
    /// its sink, and append the WAL's `InstanceSealed { outcome }`.
    pub(crate) fn seal(mut self, time: u64, outcome: SealOutcome) -> Sealed {
        let tape_error = self.tape.and_then(|mut tape| {
            tape.put(|w| stream::write_footer(w, self.clock, time));
            tape.put(|w| w.flush());
            tape.error
        });
        if let Some(wal) = &self.wal {
            wal.seal(outcome);
        }
        self.journal.time = time;
        Sealed {
            journal: self.memory.then_some(self.journal),
            tape_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::{InstanceRuntime, RuntimeOptions, RuntimeScratch};
    use crate::expr::Expr;
    use crate::journal::{read_journal, MemorySink};
    use crate::schema::SchemaBuilder;
    use crate::store::{EventStore, PersistedRequest, StoreEvent};
    use crate::task::Task;

    /// One recorder, all three outputs, driven through the runtime
    /// that owns it: what is recorded before the seal is on every
    /// output with the same clocks, what happens after it on none.
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
        let tape = MemorySink::new();
        let recorder = JournalWriter::with_outputs(
            &schema,
            strategy,
            &sv,
            false,
            Outputs {
                memory: true,
                tape: Some(Box::new(tape.clone())),
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
        assert!(sealed.tape_error.is_none());
        let memory = sealed.journal.expect("the memory output");
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
        let again = rt.seal(9, SealOutcome::Abandoned);
        assert!(again.journal.is_none() && again.tape_error.is_none());

        assert_eq!(read_journal(&tape.bytes()[..]).unwrap(), memory);
        assert_eq!(store.fetch_journal(3).unwrap(), memory);
        let report = store.fsck().unwrap();
        assert!(report.ok(), "{}", report.to_text());
        assert_eq!(report.sealed, 1, "one InstanceSealed on the lane");
        drop(rt);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

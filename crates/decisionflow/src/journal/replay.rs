//! Deterministic re-execution of a journaled instance.
//!
//! Replay rebuilds the instance runtime from the journal's embedded
//! source bindings and re-drives it using only the journal's **driver
//! events**: scheduling rounds and completion-delivery order — the two
//! nondeterministic inputs of any execution. Everything else (condition
//! verdicts, propagation, unneeded detection, launches, stabilization)
//! is re-derived live by the very same engine code and cross-checked
//! frame-by-frame against the recorded stream. Task values are
//! recomputed from the task bodies and compared against the tape, so a
//! nondeterministic task or a tampered journal surfaces as a
//! [`Divergence`] at the exact logical clock of first disagreement.
//!
//! No wall clock, no OS scheduler, no thread pool: replay of a
//! multi-threaded server capture runs single-threaded and lands on the
//! identical [`ExecutionRecord`].

use std::sync::Arc;

use crate::engine::runtime::{InstanceRuntime, RuntimeOptions, RuntimeScratch};
use crate::engine::strategy::Strategy;
use crate::journal::divergence::{Divergence, DivergenceKind};
use crate::journal::frame::{Clock, Event, Frame};
use crate::journal::writer::{JournalWriter, Outputs};
use crate::journal::{schema_fingerprint, Journal, SCHEMA_VERSION};
use crate::report::ExecutionRecord;
use crate::schema::{AttrId, Schema};
use crate::snapshot::SourceValues;
use crate::state::AttrState;
use crate::store::SealOutcome;
use crate::value::Value;

/// The result of a faithful (divergence-free) replay.
pub struct ReplayOutcome {
    /// Terminal snapshot record of the replayed runtime — equal to the
    /// original execution's record, field for field.
    pub record: ExecutionRecord,
    /// The journal re-captured during replay. For a faithful replay it
    /// equals the input journal frame-for-frame (and therefore
    /// byte-for-byte once serialized).
    pub journal: Journal,
    /// Number of frames verified.
    pub frames_verified: usize,
    /// The final runtime, for inspecting states and values.
    pub runtime: InstanceRuntime,
}

impl std::fmt::Debug for ReplayOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayOutcome")
            .field("frames_verified", &self.frames_verified)
            .field("record", &self.record)
            .finish_non_exhaustive()
    }
}

/// Re-executes journaled instances against their schema.
#[derive(Debug)]
pub struct ReplayEngine {
    schema: Arc<Schema>,
    journal: Journal,
    strategy: Strategy,
    sources: SourceValues,
}

impl ReplayEngine {
    /// Validate the journal header against `schema` and prepare a
    /// replay. Fails with a header-level [`Divergence`] on version,
    /// fingerprint, strategy, or source-binding mismatches.
    pub fn new(schema: Arc<Schema>, journal: Journal) -> Result<ReplayEngine, Divergence> {
        if journal.version != SCHEMA_VERSION {
            return Err(Divergence::header(DivergenceKind::VersionMismatch {
                found: journal.version,
                supported: SCHEMA_VERSION,
            }));
        }
        let fp = schema_fingerprint(&schema);
        if journal.schema_fingerprint != fp {
            return Err(Divergence::header(
                DivergenceKind::SchemaFingerprintMismatch {
                    journal: journal.schema_fingerprint,
                    schema: fp,
                },
            ));
        }
        let strategy: Strategy = journal.strategy.parse().map_err(|_| {
            Divergence::header(DivergenceKind::BadStrategy {
                raw: journal.strategy.clone(),
            })
        })?;
        let mut sources = SourceValues::new();
        for (name, value) in &journal.sources {
            sources
                .set_named(&schema, name, value.clone())
                .map_err(|e| {
                    Divergence::header(DivergenceKind::BadSources {
                        detail: e.to_string(),
                    })
                })?;
        }
        Ok(ReplayEngine {
            schema,
            journal,
            strategy,
            sources,
        })
    }

    /// The journal being replayed.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Replay the whole journal, verifying every frame. The journal
    /// must be a complete flight record: a tape that ends with targets
    /// still unstable (a truncated capture) is a divergence too.
    pub fn replay(&self) -> Result<ReplayOutcome, Divergence> {
        let (mut runtime, verified) = self.drive(u64::MAX)?;
        // A faithful full replay must have consumed the entire tape.
        if (verified as usize) < self.journal.frames.len() {
            return Err(Divergence::at(
                verified,
                DivergenceKind::FrameMismatch {
                    recorded: self
                        .journal
                        .frames
                        .get(verified as usize)
                        .cloned()
                        .map(Box::new),
                    replayed: None,
                },
            ));
        }
        if !runtime.is_complete() {
            return Err(Divergence::at(
                verified,
                DivergenceKind::IncompleteJournal {
                    unstable_targets: runtime.stalled().unstable_targets,
                },
            ));
        }
        let recaptured = runtime.seal(self.journal.time, SealOutcome::Completed);
        Ok(ReplayOutcome {
            record: ExecutionRecord::from_runtime(&runtime, self.journal.time),
            // invariant: `drive` attaches a recorder with the memory output on.
            journal: recaptured.expect("replay records into memory"),
            frames_verified: verified as usize,
            runtime,
        })
    }

    /// Replay to logical clock `clock` and return the runtime for
    /// inspection — time travel into the middle of an execution.
    ///
    /// Engine effects are atomic per driver event: a completion and
    /// the whole propagation cascade it triggers apply as one step.
    /// The returned runtime is therefore the state at the first
    /// engine-quiescent point **at or after** `clock` (frames beyond
    /// `clock` are no longer cross-checked against the tape).
    pub fn step_to(&self, clock: Clock) -> Result<InstanceRuntime, Divergence> {
        let (runtime, _) = self.drive(clock)?;
        Ok(runtime)
    }

    /// Core loop: re-drive the engine from the tape, stopping before
    /// `stop_clock`. Returns the runtime — still carrying the recorder
    /// it re-captured into — and the number of frames verified.
    fn drive(&self, stop_clock: Clock) -> Result<(InstanceRuntime, Clock), Divergence> {
        /// The frames the live runtime has emitted so far.
        fn live(rt: &InstanceRuntime) -> &[Frame] {
            rt.recorder().map_or(&[], JournalWriter::frames)
        }
        let recorder = JournalWriter::with_outputs(
            &self.schema,
            self.strategy,
            &self.sources,
            self.journal.disable_backward,
            Outputs {
                memory: true,
                ..Outputs::default()
            },
        );
        let options = RuntimeOptions {
            disable_backward: self.journal.disable_backward,
        };
        // A delta capture opens with a strict prefix of `Retained`
        // frames — the values the instance adopted from its prior
        // snapshot at construction. Re-adopting the same slice makes
        // the live engine re-emit identical frames, which the sync
        // loop below then verifies like any others; a `Retained` frame
        // anywhere past the prefix still fails as an unexpected frame.
        let retained: Vec<(AttrId, AttrState, Value)> = self
            .journal
            .frames
            .iter()
            .map_while(|f| match &f.event {
                Event::Retained { attr, state, value } => Some((*attr, *state, value.clone())),
                _ => None,
            })
            .collect();
        let mut rt = InstanceRuntime::with_options_retained(
            Arc::clone(&self.schema),
            self.strategy,
            &self.sources,
            &retained,
            options,
            Some(recorder),
            RuntimeScratch::default(),
        )
        .map_err(|e| {
            Divergence::header(DivergenceKind::BadSources {
                detail: e.to_string(),
            })
        })?;

        let recorded = &self.journal.frames;
        // Index into `recorded` == number of frames verified == next
        // expected logical clock (clocks are dense from 0).
        let mut cursor: usize = 0;
        let mut launches = Vec::new();

        loop {
            // Sync: every frame the live engine has emitted must match
            // the tape, in order, at the same clock.
            while let Some(emitted) = live(&rt).get(cursor) {
                if cursor as Clock >= stop_clock {
                    return Ok((rt, cursor as Clock));
                }
                match recorded.get(cursor) {
                    Some(rec) if rec == emitted => cursor += 1,
                    rec => {
                        return Err(Divergence::at(
                            cursor as Clock,
                            DivergenceKind::FrameMismatch {
                                recorded: rec.cloned().map(Box::new),
                                replayed: Some(Box::new(emitted.clone())),
                            },
                        ))
                    }
                }
            }
            if cursor as Clock >= stop_clock {
                return Ok((rt, cursor as Clock));
            }
            // The live engine is quiescent: the next recorded frame (if
            // any) must be a driver event for us to re-inject.
            let frame = match recorded.get(cursor) {
                None => break,
                Some(f) => f,
            };
            match &frame.event {
                Event::Round {
                    candidates, picked, ..
                } => {
                    // Run the production round; its own `Round` frame now
                    // sits at `cursor`. Name a disagreeing pool or pick
                    // set as such; the sync above then checks the frame
                    // whole (round number included) and the launches
                    // after it.
                    rt.round(&mut launches);
                    launches.clear();
                    let kind = match live(&rt).get(cursor).map(|f| &f.event) {
                        Some(Event::Round {
                            candidates: got, ..
                        }) if got != candidates => DivergenceKind::CandidateMismatch {
                            recorded: candidates.clone(),
                            replayed: got.clone(),
                        },
                        Some(Event::Round { picked: got, .. }) if got != picked => {
                            DivergenceKind::PickMismatch {
                                recorded: picked.clone(),
                                replayed: got.clone(),
                            }
                        }
                        Some(_) => continue,
                        // An empty live pool emits no `Round`, so the
                        // tape's one is refuted. Carrying on would spin:
                        // nothing was emitted to advance `cursor`.
                        None => DivergenceKind::FrameMismatch {
                            recorded: Some(Box::new(frame.clone())),
                            replayed: None,
                        },
                    };
                    return Err(Divergence::at(frame.clock, kind));
                }
                Event::Complete { attr, value } => {
                    if !rt.is_in_flight(*attr) {
                        return Err(Divergence::at(
                            frame.clock,
                            DivergenceKind::CompletionNotInFlight { attr: *attr },
                        ));
                    }
                    // Inputs were stable at launch and stability is
                    // monotone, so reading them here is safe.
                    let inputs = rt.input_values(*attr);
                    let replayed = self.schema.attr(*attr).task.compute(&inputs);
                    if replayed != *value {
                        return Err(Divergence::at(
                            frame.clock,
                            DivergenceKind::ValueMismatch {
                                attr: *attr,
                                recorded: value.clone(),
                                replayed,
                            },
                        ));
                    }
                    rt.complete(*attr, replayed);
                }
                _ => {
                    // An engine-only frame the live engine did not
                    // emit: the tape claims something the deterministic
                    // re-derivation refutes.
                    return Err(Divergence::at(
                        frame.clock,
                        DivergenceKind::UnexpectedFrame {
                            recorded: Box::new(frame.clone()),
                        },
                    ));
                }
            }
        }

        Ok((rt, cursor as Clock))
    }
}

//! Per-instance runtime state and the **Propagation Algorithm**.
//!
//! This module implements the prequalifying phase of §4: it maintains
//! the extended snapshot (attribute states + values), performs *eager
//! evaluation* of enabling conditions under Kleene semantics, and runs
//! **forward propagation** (DISABLED/ENABLED facts flowing down the
//! graph) and **backward propagation** (detecting attributes whose
//! stabilization is no longer required for the targets — *unneeded*
//! attributes) incrementally as task results arrive.
//!
//! ### Cost
//!
//! Every dependency edge is "killed" at most once over the lifetime of
//! an instance, and each kill is O(1); each enabling condition is
//! re-evaluated at most once per referenced attribute stabilizing. With
//! bounded condition sizes this makes the whole algorithm linear in the
//! size of the decision flow, matching the paper's claim; the
//! `propagation_steps` metric exposes the actual step count, and
//! `propagation_steps_are_linear_in_flow_size` in
//! `tests/generated_patterns.rs` holds it under one constant per node
//! and edge from 32 to 512 nodes.
//!
//! ### Neededness accounting
//!
//! `need_count[a]` counts the *live reasons* attribute `a` must still
//! stabilize:
//!
//! * one for each data edge `a → c` where consumer `c` is needed, has
//!   not produced a value, and whose condition is not decided false
//!   (if `c` may still run, its inputs must stabilize first — even to ⊥);
//! * one for each enabling edge `a → c` where `c` is needed and `c`'s
//!   condition is still undecided;
//! * one if `a` is a target that has not stabilized.
//!
//! Each reason dies exactly once (condition decided; task computed;
//! consumer unneeded; target stable), so counts only decrease — the
//! needed set shrinks monotonically. When a count reaches zero the
//! attribute is *unneeded*: it is evicted from the candidate pool and
//! its own in-edges are killed, cascading backwards.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::engine::metrics::InstanceMetrics;
use crate::engine::scheduler;
use crate::engine::strategy::Strategy;
use crate::expr::{AttrView, Tri, ValueEnv};
use crate::journal::{Event, Journal, JournalWriter};
use crate::schema::{AttrId, Schema};
use crate::snapshot::{CompleteSnapshot, FinalState, SnapshotError, SourceValues};
use crate::state::AttrState;
use crate::store::SealOutcome;
use crate::value::Value;

/// Engine options beyond the paper's four strategy letters, used for
/// ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Disable backward propagation (unneeded detection) while keeping
    /// eager forward propagation — quantifies backward's contribution.
    pub disable_backward: bool,
}

/// Reusable allocation scratch for [`InstanceRuntime`] construction.
///
/// Building a runtime allocates a dozen per-attribute vectors; on the
/// server's submission hot path that cost is paid once per instance.
/// A scratch holds those buffers after an instance retires
/// ([`InstanceRuntime::reclaim`]) so the next construction on the same
/// shard ([`InstanceRuntime::with_options_retained`]) reuses the
/// capacity instead of round-tripping the allocator. A `Default`
/// scratch is empty and behaves exactly like allocating fresh.
#[derive(Default)]
pub struct RuntimeScratch {
    state: Vec<AttrState>,
    /// Stable values (⊥ for DISABLED) and cached speculative results
    /// for COMPUTED attributes.
    values: Vec<Value>,
    cond: Vec<Tri>,
    /// Unstable data inputs remaining, per attribute.
    pending_inputs: Vec<u32>,
    /// Unstable enabling references remaining, per attribute.
    pending_refs: Vec<u32>,
    in_flight: Vec<bool>,
    need_count: Vec<u32>,
    enab_edges_dead: Vec<bool>,
    data_edges_dead: Vec<bool>,
    target_alive: Vec<bool>,
    pool: Vec<AttrId>,
    in_pool: Vec<bool>,
    /// The scheduling round's working buffer: the pool going in, the
    /// picks coming out ([`InstanceRuntime::round`]).
    picks: Vec<AttrId>,
    /// Newly stable attributes awaiting propagation.
    stable_queue: VecDeque<AttrId>,
}

impl RuntimeScratch {
    /// Reset every buffer to the initial runtime state for a schema of
    /// `n` attributes, reusing existing capacity.
    fn reset(&mut self, n: usize) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
            v.clear();
            v.resize(n, x);
        }
        refill(&mut self.state, n, AttrState::Uninitialized);
        refill(&mut self.values, n, Value::Null);
        refill(&mut self.cond, n, Tri::Unknown);
        refill(&mut self.pending_inputs, n, 0);
        refill(&mut self.pending_refs, n, 0);
        refill(&mut self.in_flight, n, false);
        refill(&mut self.need_count, n, 0);
        refill(&mut self.enab_edges_dead, n, false);
        refill(&mut self.data_edges_dead, n, false);
        refill(&mut self.target_alive, n, false);
        refill(&mut self.in_pool, n, false);
        self.pool.clear();
        self.picks.clear();
        self.stable_queue.clear();
    }
}

/// The runtime of one decision-flow instance.
pub struct InstanceRuntime {
    schema: Arc<Schema>,
    strategy: Strategy,
    options: RuntimeOptions,

    /// The per-attribute buffers, held as the arena's unit so they are
    /// built from and reclaimed into a [`RuntimeScratch`] whole.
    bufs: RuntimeScratch,
    unstable_targets: u32,
    /// Scheduling rounds run so far over a non-empty pool.
    rounds: u32,
    /// Attributes adopted pre-stabilized from a prior snapshot
    /// ([`InstanceRuntime::with_options_retained`]); 0 on cold runs.
    retained: u32,
    metrics: InstanceMetrics,
    /// The flight recorder. `None` (the default, and again once
    /// sealed) keeps the hot path at a single branch per event site.
    recorder: Option<JournalWriter>,
    /// Set by the first [`InstanceRuntime::seal`].
    sealed: bool,
}

/// The runtime cannot make progress although targets are unstable —
/// indicates a schema or engine invariant violation (never expected on
/// validated schemas; surfaced as an error for diagnosability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stalled {
    /// Targets still unstable at the stall.
    pub unstable_targets: Vec<String>,
}

impl std::fmt::Display for Stalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "execution stalled with unstable targets: {:?}",
            self.unstable_targets
        )
    }
}

impl std::error::Error for Stalled {}

impl ValueEnv for InstanceRuntime {
    fn view(&self, a: AttrId) -> AttrView<'_> {
        if self.bufs.state[a.index()].is_stable() {
            AttrView::Stable(&self.bufs.values[a.index()])
        } else {
            AttrView::Unstable
        }
    }
}

impl InstanceRuntime {
    /// Create the runtime for one instance: binds source values,
    /// initializes the needed counts, and runs initial propagation
    /// (source stabilization + eager evaluation of every condition
    /// decidable from constants and sources alone).
    pub fn new(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
    ) -> Result<Self, SnapshotError> {
        Self::with_options(schema, strategy, sources, RuntimeOptions::default())
    }

    /// Like [`InstanceRuntime::new`] with explicit ablation options.
    pub fn with_options(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
        options: RuntimeOptions,
    ) -> Result<Self, SnapshotError> {
        Self::with_options_retained(
            schema,
            strategy,
            sources,
            &[],
            options,
            None,
            RuntimeScratch::default(),
        )
    }

    /// The full construction, which delta resubmission and recording
    /// need: like [`InstanceRuntime::with_options`], but every `(attr,
    /// state, value)` entry of `retained` is **adopted** from a prior
    /// instance's stabilized outcome instead of recomputed — the
    /// attribute starts pre-stabilized (emitting an
    /// [`Event::Retained`] frame when recording) and only the
    /// downstream-of-delta cone executes. Callers guarantee the
    /// entries are valid splice-ins: non-source attributes with a
    /// stable state (`Value`/`Disabled`) whose every transitive
    /// dependency is itself retained or an unchanged source — exactly
    /// what [`plan_delta`](crate::statestore::plan_delta) produces.
    ///
    /// A `recorder` journals every engine control decision — including
    /// the eager decisions made during initialization, which is why it
    /// must be supplied at construction — and the scheduling rounds of
    /// [`InstanceRuntime::round`]. The per-attribute vectors are built
    /// into `scratch`, reusing a retired instance's capacity; callers
    /// without an arena pass `RuntimeScratch::default()`.
    pub fn with_options_retained(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
        retained: &[(AttrId, AttrState, Value)],
        options: RuntimeOptions,
        recorder: Option<JournalWriter>,
        mut scratch: RuntimeScratch,
    ) -> Result<Self, SnapshotError> {
        sources.validate(&schema)?;
        let n = schema.len();
        scratch.reset(n);
        let mut rt = InstanceRuntime {
            strategy,
            options,
            bufs: scratch,
            unstable_targets: 0,
            rounds: 0,
            retained: 0,
            metrics: InstanceMetrics::new(),
            recorder,
            sealed: false,
            schema,
        };
        rt.initialize(sources, retained);
        Ok(rt)
    }

    /// Strip this runtime's per-attribute buffers into a
    /// [`RuntimeScratch`] for reuse by a later construction. The
    /// runtime stays safe to query (`is_complete`, `metrics`) but its
    /// snapshot views are hollowed out, so callers take any final
    /// [`ExecutionRecord`](crate::report::ExecutionRecord) *before*
    /// reclaiming. Intended for retired instances — the server calls it
    /// when the last reference to a finished instance drops.
    pub fn reclaim(&mut self) -> RuntimeScratch {
        std::mem::take(&mut self.bufs)
    }

    fn initialize(&mut self, sources: &SourceValues, retained: &[(AttrId, AttrState, Value)]) {
        let schema = Arc::clone(&self.schema);
        // Dependency counters.
        for a in schema.attr_ids() {
            let i = a.index();
            self.bufs.pending_inputs[i] = schema.attr(a).inputs.len() as u32;
            self.bufs.pending_refs[i] = schema.enabling_refs(a).len() as u32;
        }
        // Needed counts: every edge alive, every target unstable.
        for a in schema.attr_ids() {
            let mut count = 0u32;
            count += schema.data_consumers(a).len() as u32;
            count += schema.enabling_consumers(a).len() as u32;
            if schema.attr(a).target {
                count += 1;
                self.bufs.target_alive[a.index()] = true;
                self.unstable_targets += 1;
            }
            self.bufs.need_count[a.index()] = count;
        }
        // Delta splice-in: adopt retained outcomes from a prior
        // snapshot before anything else stabilizes, so `Retained`
        // frames form a strict prefix of the tape. Phase 1 pins every
        // terminal state first (no attribute is half-adopted when the
        // edge kills below cascade through `dec_need`); phase 2 then
        // retires the adopted attributes' in-edges through the normal
        // exactly-once kill discipline, which re-derives unneededness
        // for prior-unneeded attributes and feeds forward propagation
        // into the re-executed cone via the stable queue.
        for &(a, st, ref v) in retained {
            let i = a.index();
            debug_assert!(st.is_stable(), "retained {a:?} in unstable state {st:?}");
            debug_assert!(!schema.is_source(a), "sources are rebound, never retained");
            debug_assert!(
                self.bufs.state[i].can_advance_to(st),
                "illegal adoption {:?} -> {st:?} for {a:?}",
                self.bufs.state[i]
            );
            if self.recording() {
                self.emit(Event::Retained {
                    attr: a,
                    state: st,
                    value: v.clone(),
                });
            }
            self.bufs.state[i] = st;
            self.bufs.values[i] = v.clone();
            self.bufs.cond[i] = if st == AttrState::Disabled {
                Tri::False
            } else {
                Tri::True
            };
            self.retained += 1;
            if self.bufs.target_alive[i] {
                self.bufs.target_alive[i] = false;
                self.unstable_targets -= 1;
                self.dec_need(a);
            }
            self.bufs.stable_queue.push_back(a);
        }
        for &(a, _, _) in retained {
            self.kill_enabling_in_edges(a);
            self.kill_data_in_edges(a);
        }
        // Attributes with no data inputs are READY from the start.
        for a in schema.attr_ids() {
            if !schema.is_source(a) && self.bufs.pending_inputs[a.index()] == 0 {
                self.on_inputs_ready(a);
            }
        }
        // Sources stabilize immediately with their bound values; their
        // (vacuous) conditions are True.
        for &s in schema.sources() {
            self.bufs.cond[s.index()] = Tri::True;
            // invariant: sources.validate ran before the engine started.
            let v = sources.get(s).expect("validated").clone();
            self.mark_stable(s, AttrState::Value, v);
        }
        self.drain_propagation();
        // Eager init: decide every condition that is already decidable.
        // Under `P` this applies Kleene short-circuiting to all
        // conditions; under `N` only conditions with zero unstable
        // references are evaluated (their value is then exact).
        for &a in schema.topo_order() {
            if schema.is_source(a) || self.bufs.cond[a.index()].is_decided() {
                continue;
            }
            let decidable = self.strategy.propagate || self.bufs.pending_refs[a.index()] == 0;
            if decidable {
                self.metrics.propagation_steps += 1;
                let t = schema.attr(a).enabling.eval(self);
                if let Some(b) = t.as_bool() {
                    self.decide_cond(a, b);
                    self.drain_propagation();
                }
            }
        }
        self.drain_propagation();
    }

    /// Forward an event to the recorder, if one is attached. Call
    /// sites guard with [`InstanceRuntime::recording`] before building
    /// events that clone values.
    #[inline]
    fn emit(&mut self, event: Event) {
        if let Some(recorder) = &mut self.recorder {
            recorder.record(event);
        }
    }

    /// Is a recorder attached (and not yet sealed)?
    #[inline]
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// The attached recorder: replay reads the frames its live runtime
    /// emitted through here.
    pub(crate) fn recorder(&self) -> Option<&JournalWriter> {
        self.recorder.as_ref()
    }

    /// Has [`seal`](Self::seal) run?
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// End the instance's recording, once: the recorder is given up
    /// and sealed ([`JournalWriter::seal`]), so whatever the runtime
    /// does afterwards — speculative stragglers completing past the
    /// delivered result — is journaled nowhere. Drivers seal at the
    /// point they take the instance's result. Hands back the frozen
    /// journal when the recorder's memory output was on; every later
    /// call, and every call on a runtime that never recorded, `None`.
    pub(crate) fn seal(&mut self, time: u64, outcome: SealOutcome) -> Option<Journal> {
        self.sealed = true;
        self.recorder
            .take()
            .and_then(|recorder| recorder.seal(time, outcome))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The schema this instance runs.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Current state of `a`.
    pub fn state(&self, a: AttrId) -> AttrState {
        self.bufs.state[a.index()]
    }

    /// Current condition verdict for `a`.
    pub fn cond(&self, a: AttrId) -> Tri {
        self.bufs.cond[a.index()]
    }

    /// Stable value of `a`, if `a` has stabilized.
    pub fn stable_value(&self, a: AttrId) -> Option<&Value> {
        if self.bufs.state[a.index()].is_stable() {
            Some(&self.bufs.values[a.index()])
        } else {
            None
        }
    }

    /// Is `a` still needed for instance completion? (Always true under
    /// the naive option or with backward propagation disabled.)
    pub fn is_needed(&self, a: AttrId) -> bool {
        if !self.strategy.propagate || self.options.disable_backward {
            return true;
        }
        self.bufs.need_count[a.index()] > 0
    }

    /// Is the task for `a` currently executing?
    pub fn is_in_flight(&self, a: AttrId) -> bool {
        self.bufs.in_flight[a.index()]
    }

    /// All target attributes stable ⇒ the instance is complete.
    pub fn is_complete(&self) -> bool {
        self.unstable_targets == 0
    }

    /// Execution counters.
    pub fn metrics(&self) -> &InstanceMetrics {
        &self.metrics
    }

    /// How many attributes were adopted pre-stabilized from a prior
    /// snapshot ([`InstanceRuntime::with_options_retained`]). 0 on
    /// cold (non-delta) runs.
    pub fn retained_count(&self) -> u32 {
        self.retained
    }

    /// Number of tasks currently in flight.
    fn in_flight_count(&self) -> usize {
        self.bufs.in_flight.iter().filter(|b| **b).count()
    }

    // ------------------------------------------------------------------
    // Prequalifier interface
    // ------------------------------------------------------------------

    fn is_candidate(&self, a: AttrId) -> bool {
        let i = a.index();
        if self.bufs.state[i].is_stable()
            || self.bufs.in_flight[i]
            || self.bufs.state[i].has_value()
            || self.bufs.pending_inputs[i] > 0
        {
            return false;
        }
        if !self.is_needed(a) {
            return false;
        }
        match self.bufs.cond[i] {
            Tri::True => true,
            Tri::Unknown => self.strategy.speculative,
            Tri::False => false,
        }
    }

    /// The candidate attribute pool — prequalified tasks eligible for
    /// scheduling right now — into a caller-owned buffer (cleared
    /// first), so a scheduling loop reuses one buffer across rounds.
    /// Invalid entries are pruned from the pool, which is compacted in
    /// place; entries that may become eligible again later are
    /// retained.
    pub fn candidates_into(&mut self, out: &mut Vec<AttrId>) {
        out.clear();
        let mut w = 0;
        for idx in 0..self.bufs.pool.len() {
            let a = self.bufs.pool[idx];
            if self.is_candidate(a) {
                self.bufs.pool[w] = a;
                w += 1;
                out.push(a);
            } else {
                // A candidate leaves the pool for good when its fate is
                // sealed: stable, launched, computed, or unneeded. Only
                // those are ever inserted, so eviction is permanent.
                self.bufs.in_pool[a.index()] = false;
            }
        }
        self.bufs.pool.truncate(w);
    }

    /// One scheduling round — phases 2 and 3 of the loop: prequalify
    /// the pool, let the [`scheduler`] pick what `%Permitted` allows,
    /// journal the round when recording (pool and picks, ahead of the
    /// launches they cause, so replay re-derives the same frame order;
    /// an empty pool is not a round), and [`launch`](Self::launch) each
    /// pick. The picks and their input values are appended to
    /// `launches` in launch order for the driver to run the task bodies.
    ///
    /// Apart from those input values an unrecorded round allocates
    /// nothing: it works in a buffer the runtime owns.
    pub fn round(&mut self, launches: &mut Vec<(AttrId, Vec<Value>)>) {
        let mut picks = std::mem::take(&mut self.bufs.picks);
        self.candidates_into(&mut picks);
        if !picks.is_empty() {
            let candidates = self.recording().then(|| picks.clone());
            let in_flight = self.in_flight_count();
            scheduler::select_into(&self.schema, self.strategy, &mut picks, in_flight);
            if let Some(candidates) = candidates {
                self.emit(Event::Round {
                    round: self.rounds,
                    candidates,
                    picked: picks.clone(),
                });
                self.rounds += 1;
            }
            for &a in &picks {
                let inputs = self.launch(a);
                launches.push((a, inputs));
            }
        }
        self.bufs.picks = picks;
    }

    /// Commit to executing `a`'s task: records the work (queries are
    /// never cancelled once sent) and returns the input values for the
    /// task body. Panics if `a` is not a valid candidate.
    pub fn launch(&mut self, a: AttrId) -> Vec<Value> {
        assert!(self.is_candidate(a), "launch of non-candidate {a:?}");
        self.bufs.in_flight[a.index()] = true;
        self.metrics.launched += 1;
        self.metrics.work += self.schema.cost(a);
        if self.recording() {
            let cost = self.schema.cost(a);
            self.emit(Event::Launch { attr: a, cost });
        }
        self.input_values(a)
    }

    /// Stable input values for `a`'s task, in declaration order. Panics
    /// unless every input has stabilized.
    pub fn input_values(&self, a: AttrId) -> Vec<Value> {
        self.schema
            .attr(a)
            .inputs
            .iter()
            .map(|&i| {
                assert!(
                    self.bufs.state[i.index()].is_stable(),
                    "input {i:?} of {a:?} not stable"
                );
                self.bufs.values[i.index()].clone()
            })
            .collect()
    }

    /// Deliver the result of `a`'s task and run incremental
    /// propagation. The fate of the value depends on the condition:
    /// decided true ⇒ stable VALUE; still unknown ⇒ COMPUTED
    /// (speculative); decided false ⇒ the work was wasted.
    pub fn complete(&mut self, a: AttrId, v: Value) {
        let i = a.index();
        assert!(
            self.bufs.in_flight[i],
            "completion for task not in flight: {a:?}"
        );
        if self.recording() {
            self.emit(Event::Complete {
                attr: a,
                value: v.clone(),
            });
        }
        self.bufs.in_flight[i] = false;
        // The task has produced its value: its inputs are no longer
        // needed on account of `a`.
        self.kill_data_in_edges(a);
        match self.bufs.cond[i] {
            Tri::True => {
                self.metrics.useful_completions += 1;
                self.mark_stable(a, AttrState::Value, v);
            }
            Tri::Unknown => {
                debug_assert!(self.bufs.state[i].can_advance_to(AttrState::Computed));
                self.bufs.state[i] = AttrState::Computed;
                self.bufs.values[i] = v;
            }
            Tri::False => {
                // Disabled while the query was running: discard.
                debug_assert_eq!(self.bufs.state[i], AttrState::Disabled);
                self.metrics.wasted_completions += 1;
                self.metrics.wasted_work += self.schema.cost(a);
            }
        }
        self.drain_propagation();
    }

    /// Check agreement with the declarative oracle on every **target**
    /// attribute — the correctness condition of §2.
    pub fn agrees_with(&self, snap: &CompleteSnapshot) -> bool {
        self.schema
            .targets()
            .iter()
            .all(|&t| match (self.state(t), snap.state(t)) {
                (AttrState::Value, FinalState::Value) => {
                    self.bufs.values[t.index()] == *snap.value(t)
                }
                (AttrState::Disabled, FinalState::Disabled) => true,
                _ => false,
            })
    }

    /// Build the stall diagnostic (for drivers that detect no progress).
    pub fn stalled(&self) -> Stalled {
        Stalled {
            unstable_targets: self
                .schema
                .targets()
                .iter()
                .filter(|&&t| !self.state(t).is_stable())
                .map(|&t| self.schema.attr(t).name.clone())
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Propagation internals
    // ------------------------------------------------------------------

    fn pool_insert(&mut self, a: AttrId) {
        if !self.bufs.in_pool[a.index()] && self.is_candidate(a) {
            self.bufs.in_pool[a.index()] = true;
            self.bufs.pool.push(a);
        }
    }

    /// Transition `a` to a stable state and queue forward propagation.
    fn mark_stable(&mut self, a: AttrId, st: AttrState, v: Value) {
        let i = a.index();
        debug_assert!(st.is_stable());
        debug_assert!(
            self.bufs.state[i].can_advance_to(st),
            "illegal transition {:?} -> {st:?} for {a:?}",
            self.bufs.state[i]
        );
        self.bufs.state[i] = st;
        if self.recording() {
            self.emit(Event::Stabilized {
                attr: a,
                state: st,
                value: v.clone(),
            });
        }
        self.bufs.values[i] = v;
        if self.bufs.target_alive[i] {
            self.bufs.target_alive[i] = false;
            self.unstable_targets -= 1;
            self.dec_need(a);
        }
        self.bufs.stable_queue.push_back(a);
    }

    /// Forward propagation: drain newly stable attributes, updating
    /// consumer readiness and (eagerly) re-evaluating consumer
    /// conditions.
    fn drain_propagation(&mut self) {
        let schema = Arc::clone(&self.schema);
        while let Some(a) = self.bufs.stable_queue.pop_front() {
            // Data consumers: one fewer unstable input.
            for &c in schema.data_consumers(a) {
                self.metrics.propagation_steps += 1;
                let pc = &mut self.bufs.pending_inputs[c.index()];
                debug_assert!(*pc > 0);
                *pc -= 1;
                if *pc == 0 {
                    self.on_inputs_ready(c);
                }
            }
            // Enabling consumers: maybe (re-)evaluate their condition.
            for &c in schema.enabling_consumers(a) {
                self.metrics.propagation_steps += 1;
                let pr = &mut self.bufs.pending_refs[c.index()];
                debug_assert!(*pr > 0);
                *pr -= 1;
                if self.bufs.cond[c.index()].is_decided() {
                    continue;
                }
                let evaluate = if self.strategy.propagate {
                    true // eager: re-evaluate on every new fact
                } else {
                    self.bufs.pending_refs[c.index()] == 0 // naive: exact only
                };
                if evaluate {
                    self.metrics.propagation_steps += 1;
                    let t = schema.attr(c).enabling.eval(self);
                    if let Some(b) = t.as_bool() {
                        if self.bufs.pending_refs[c.index()] > 0 {
                            self.metrics.eager_decisions += 1;
                        }
                        self.decide_cond(c, b);
                    }
                }
            }
        }
    }

    /// All data inputs of `c` just became stable.
    fn on_inputs_ready(&mut self, c: AttrId) {
        let i = c.index();
        if self.bufs.state[i].is_stable() {
            return; // disabled before inputs settled
        }
        match self.bufs.cond[i] {
            Tri::True => {
                debug_assert!(self.bufs.state[i].can_advance_to(AttrState::ReadyEnabled));
                self.bufs.state[i] = AttrState::ReadyEnabled;
                self.pool_insert(c);
            }
            Tri::Unknown => {
                debug_assert!(self.bufs.state[i].can_advance_to(AttrState::Ready));
                self.bufs.state[i] = AttrState::Ready;
                self.pool_insert(c); // pool_insert re-checks speculative
            }
            Tri::False => unreachable!("condition false implies already stable"),
        }
    }

    /// Record a condition verdict and apply its consequences.
    fn decide_cond(&mut self, c: AttrId, verdict: bool) {
        let i = c.index();
        debug_assert_eq!(self.bufs.cond[i], Tri::Unknown);
        if self.recording() {
            let eager = self.bufs.pending_refs[i] > 0;
            self.emit(Event::CondDecided {
                attr: c,
                verdict,
                eager,
            });
        }
        self.bufs.cond[i] = Tri::from_bool(verdict);
        // The condition is settled: its referenced attributes are no
        // longer needed on account of `c`.
        self.kill_enabling_in_edges(c);
        if verdict {
            match self.bufs.state[i] {
                AttrState::Uninitialized => self.bufs.state[i] = AttrState::Enabled,
                AttrState::Ready => {
                    self.bufs.state[i] = AttrState::ReadyEnabled;
                    self.pool_insert(c);
                }
                AttrState::Computed => {
                    // Speculation paid off: the cached value becomes final.
                    self.metrics.useful_completions += 1;
                    let v = std::mem::take(&mut self.bufs.values[i]);
                    self.mark_stable(c, AttrState::Value, v);
                }
                other => unreachable!("cond decided on state {other:?}"),
            }
        } else {
            self.metrics.disabled += 1;
            // Disabled: data inputs are no longer needed on account of c.
            self.kill_data_in_edges(c);
            if self.bufs.state[i] == AttrState::Computed {
                // Speculation wasted.
                self.metrics.wasted_completions += 1;
                self.metrics.wasted_work += self.schema.cost(c);
            }
            self.mark_stable(c, AttrState::Disabled, Value::Null);
        }
    }

    fn kill_enabling_in_edges(&mut self, c: AttrId) {
        if std::mem::replace(&mut self.bufs.enab_edges_dead[c.index()], true) {
            return;
        }
        let schema = Arc::clone(&self.schema);
        for &r in schema.enabling_refs(c) {
            self.metrics.propagation_steps += 1;
            self.dec_need(r);
        }
    }

    fn kill_data_in_edges(&mut self, c: AttrId) {
        if std::mem::replace(&mut self.bufs.data_edges_dead[c.index()], true) {
            return;
        }
        let schema = Arc::clone(&self.schema);
        for idx in 0..schema.attr(c).inputs.len() {
            let r = schema.attr(c).inputs[idx];
            self.metrics.propagation_steps += 1;
            self.dec_need(r);
        }
    }

    /// Backward propagation: one live reason for `r` died.
    fn dec_need(&mut self, r: AttrId) {
        if !self.strategy.propagate || self.options.disable_backward {
            return;
        }
        let mut stack = vec![r];
        while let Some(r) = stack.pop() {
            let i = r.index();
            debug_assert!(self.bufs.need_count[i] > 0, "need_count underflow at {r:?}");
            self.bufs.need_count[i] -= 1;
            if self.bufs.need_count[i] > 0 || self.bufs.state[i].is_stable() {
                continue;
            }
            // `r` is unneeded: it will never be launched (the pool
            // check excludes it) and need not stabilize. Its own
            // dependencies are released in turn.
            self.metrics.unneeded_detected += 1;
            self.emit(Event::Unneeded { attr: r });
            if !std::mem::replace(&mut self.bufs.enab_edges_dead[i], true) {
                for &x in self.schema.enabling_refs(r) {
                    self.metrics.propagation_steps += 1;
                    stack.push(x);
                }
            }
            if !std::mem::replace(&mut self.bufs.data_edges_dead[i], true) {
                for &x in &self.schema.attr(r).inputs {
                    self.metrics.propagation_steps += 1;
                    stack.push(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;
    use crate::snapshot::complete_snapshot;
    use crate::task::Task;

    fn strat(s: &str) -> Strategy {
        s.parse().unwrap()
    }

    /// The current candidate pool.
    fn candidates(rt: &mut InstanceRuntime) -> Vec<AttrId> {
        let mut out = Vec::new();
        rt.candidates_into(&mut out);
        out
    }

    /// The give_promo cascade of §4: expendable_income = 0 disables
    /// give_promo, which disables the presentation chain, which makes
    /// promo_hit_list unneeded.
    ///
    ///   income(src) ─enab→ give_promo(target-ish gate)
    ///   hit_list(query) ─data→ images(query) ─data→ assembly(target)
    ///   give_promo ─enab→ images, assembly
    fn promo_like() -> (Arc<Schema>, SourceValues, AttrId, AttrId, AttrId) {
        let mut b = SchemaBuilder::new();
        let income = b.source("income");
        let give = b.attr(
            "give_promo",
            Task::const_query(1, true),
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
            Expr::Truthy(give),
        );
        let asm = b.attr(
            "assembly",
            Task::const_query(2, "page"),
            vec![images],
            Expr::Truthy(give),
        );
        b.mark_target(asm);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(income, 0i64);
        (schema, sv, give, hit, asm)
    }

    #[test]
    fn forward_propagation_disables_cascade() {
        let (schema, sv, give, _hit, asm) = promo_like();
        let rt = InstanceRuntime::new(schema, strat("PCE0"), &sv).unwrap();
        // income=0 decides give_promo's condition false at init;
        // the Truthy(give_promo)=⊥ conditions downstream follow.
        assert_eq!(rt.state(give), AttrState::Disabled);
        assert_eq!(rt.state(asm), AttrState::Disabled);
        assert!(rt.is_complete(), "target disabled ⇒ instance complete");
        assert_eq!(rt.metrics().work, 0, "nothing was ever launched");
    }

    #[test]
    fn backward_propagation_detects_unneeded_hit_list() {
        let (schema, sv, _give, hit, _asm) = promo_like();
        let mut rt = InstanceRuntime::new(schema, strat("PCE0"), &sv).unwrap();
        // hit_list is enabled (condition true) and ready, but its only
        // consumer is disabled: backward propagation prunes it.
        assert!(!rt.is_needed(hit));
        assert!(candidates(&mut rt).is_empty());
        assert!(rt.metrics().unneeded_detected >= 1);
    }

    #[test]
    fn naive_mode_keeps_unneeded_in_pool() {
        let (schema, sv, _give, hit, _asm) = promo_like();
        let mut rt = InstanceRuntime::new(schema, strat("NCE0"), &sv).unwrap();
        // Even naive mode decides give_promo (no unstable refs) and the
        // downstream conditions; but hit_list stays in the pool.
        assert!(rt.is_needed(hit), "naive mode never prunes");
        let pool = candidates(&mut rt);
        assert_eq!(pool, vec![hit]);
    }

    #[test]
    fn enabled_path_executes_and_agrees_with_oracle() {
        let (schema, _sv, give, hit, asm) = promo_like();
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("income").unwrap(), 500i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        // Drive to completion manually: launch every candidate, deliver.
        let mut guard = 0;
        while !rt.is_complete() {
            guard += 1;
            assert!(guard < 100, "runaway loop");
            let cands = candidates(&mut rt);
            assert!(
                !cands.is_empty() || rt.in_flight_count() > 0,
                "stalled: {:?}",
                rt.stalled()
            );
            for a in cands {
                let inputs = rt.launch(a);
                let v = schema.attr(a).task.compute(&inputs);
                rt.complete(a, v);
            }
        }
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(rt.agrees_with(&snap));
        assert_eq!(rt.stable_value(asm), Some(&Value::str("page")));
        assert_eq!(rt.state(give), AttrState::Value);
        assert_eq!(rt.state(hit), AttrState::Value);
        // Work = 1 + 5 + 3 + 2.
        assert_eq!(rt.metrics().work, 11);
        assert_eq!(rt.metrics().useful_completions, 4);
        assert_eq!(rt.metrics().wasted_completions, 0);
    }

    /// Schema where speculation helps: target needs q2, whose condition
    /// depends on a slow gate; q2's inputs are ready immediately.
    fn speculative_schema() -> (Arc<Schema>, SourceValues) {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let gate = b.attr("gate", Task::const_query(10, 1i64), vec![], Expr::Lit(true));
        let q2 = b.attr(
            "q2",
            Task::const_query(4, "payload"),
            vec![s],
            Expr::cmp_const(gate, CmpOp::Gt, 0i64),
        );
        let t = b.synthesis("t", vec![q2], Expr::Lit(true), |v| v[0].clone());
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        (schema, sv)
    }

    #[test]
    fn conservative_pool_excludes_ready_unknown() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(schema, strat("PCE100"), &sv).unwrap();
        assert_eq!(
            rt.state(q2),
            AttrState::Ready,
            "inputs stable, cond unknown"
        );
        let pool = candidates(&mut rt);
        assert_eq!(pool, vec![gate], "conservative: only READY+ENABLED");
    }

    #[test]
    fn speculative_pool_includes_ready_and_resolves_to_value() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PSE100"), &sv).unwrap();
        let pool = candidates(&mut rt);
        assert!(pool.contains(&q2) && pool.contains(&gate));
        // Launch q2 speculatively; it completes while gate is pending.
        let inputs = rt.launch(q2);
        let v = schema.attr(q2).task.compute(&inputs);
        rt.complete(q2, v);
        assert_eq!(rt.state(q2), AttrState::Computed);
        assert_eq!(rt.stable_value(q2), None, "speculative value not stable");
        // Now the gate completes; q2's condition decides true and the
        // cached value becomes final.
        let inputs = rt.launch(gate);
        let v = schema.attr(gate).task.compute(&inputs);
        rt.complete(gate, v);
        assert_eq!(rt.state(q2), AttrState::Value);
        assert_eq!(rt.stable_value(q2), Some(&Value::str("payload")));
        assert_eq!(rt.metrics().wasted_completions, 0);
    }

    #[test]
    fn speculation_wasted_when_condition_fails() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PSE100"), &sv).unwrap();
        candidates(&mut rt);
        let inputs = rt.launch(q2);
        let v = schema.attr(q2).task.compute(&inputs);
        rt.complete(q2, v);
        // Gate returns 0 ⇒ q2's condition (gate > 0) is false.
        rt.launch(gate);
        rt.complete(gate, Value::Int(0));
        assert_eq!(rt.state(q2), AttrState::Disabled);
        assert_eq!(rt.metrics().wasted_completions, 1);
        assert_eq!(rt.metrics().wasted_work, 4);
        // Target runs with ⊥ input.
        let t = schema.lookup("t").unwrap();
        let pool = candidates(&mut rt);
        assert_eq!(pool, vec![t]);
    }

    #[test]
    fn disable_mid_flight_discards_result() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PSE100"), &sv).unwrap();
        candidates(&mut rt);
        // Launch q2 speculatively, then resolve the gate to false
        // while q2 is still in flight.
        let _ = rt.launch(q2);
        let _ = rt.launch(gate);
        rt.complete(gate, Value::Int(0));
        assert_eq!(rt.state(q2), AttrState::Disabled, "disabled mid-flight");
        // Completion arrives late; it is discarded.
        rt.complete(q2, Value::str("late"));
        assert_eq!(rt.stable_value(q2), Some(&Value::Null));
        assert_eq!(rt.metrics().wasted_completions, 1);
    }

    #[test]
    fn eager_or_decides_before_all_refs_stable() {
        // cond(q) = (slow > 80) OR (fast < 95): fast alone decides.
        let mut b = SchemaBuilder::new();
        let _s = b.source("s");
        let slow = b.attr(
            "slow",
            Task::const_query(100, 10i64),
            vec![],
            Expr::Lit(true),
        );
        let fast = b.attr("fast", Task::const_query(1, 90i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(1, "ok"),
            vec![],
            Expr::cmp_const(slow, CmpOp::Gt, 80i64).or(Expr::cmp_const(fast, CmpOp::Lt, 95i64)),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        candidates(&mut rt);
        let f = schema.lookup("fast").unwrap();
        let inputs = rt.launch(f);
        rt.complete(f, schema.attr(f).task.compute(&inputs));
        let q = schema.lookup("q").unwrap();
        assert_eq!(rt.cond(q), Tri::True, "OR short-circuited on fast");
        assert!(rt.metrics().eager_decisions >= 1);
        // `slow` is now unneeded: q's condition is decided and nothing
        // else consumes it.
        assert!(!rt.is_needed(schema.lookup("slow").unwrap()));
    }

    #[test]
    fn naive_mode_waits_for_all_refs() {
        let mut b = SchemaBuilder::new();
        let _s = b.source("s");
        let slow = b.attr(
            "slow",
            Task::const_query(100, 10i64),
            vec![],
            Expr::Lit(true),
        );
        let fast = b.attr("fast", Task::const_query(1, 90i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(1, "ok"),
            vec![],
            Expr::cmp_const(slow, CmpOp::Gt, 80i64).or(Expr::cmp_const(fast, CmpOp::Lt, 95i64)),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("NCE100"), &sv).unwrap();
        candidates(&mut rt);
        let f = schema.lookup("fast").unwrap();
        let inputs = rt.launch(f);
        rt.complete(f, schema.attr(f).task.compute(&inputs));
        assert_eq!(rt.cond(q), Tri::Unknown, "naive: no short-circuit");
        assert_eq!(rt.metrics().eager_decisions, 0);
        // Must execute `slow` before q's condition decides.
        let inputs = rt.launch(slow);
        rt.complete(slow, schema.attr(slow).task.compute(&inputs));
        assert_eq!(rt.cond(q), Tri::True);
    }

    #[test]
    fn ablation_forward_only_keeps_everything_needed() {
        let (schema, sv, _give, hit, _asm) = promo_like();
        let mut rt = InstanceRuntime::with_options(
            schema,
            strat("PCE0"),
            &sv,
            RuntimeOptions {
                disable_backward: true,
            },
        )
        .unwrap();
        assert!(rt.is_needed(hit), "backward disabled: no pruning");
        // Forward propagation still decided everything downstream.
        assert!(rt.is_complete());
        assert_eq!(candidates(&mut rt), vec![hit]);
    }

    #[test]
    fn round_journals_itself_and_launches_the_same_picks_unrecorded() {
        let (schema, ..) = promo_like();
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("income").unwrap(), 500i64);
        let mut empty_rounds = 0;
        for s in ["PCE0", "PCE50", "PCE100", "PSC100", "NSC60"] {
            let mut rec = InstanceRuntime::with_options_retained(
                Arc::clone(&schema),
                strat(s),
                &sv,
                &[],
                RuntimeOptions::default(),
                Some(JournalWriter::new(&schema, strat(s), &sv)),
                RuntimeScratch::default(),
            )
            .unwrap();
            let mut plain = InstanceRuntime::new(Arc::clone(&schema), strat(s), &sv).unwrap();
            assert!(rec.recording() && !plain.recording());
            let (mut launched, mut plain_launched) = (Vec::new(), Vec::new());
            let mut in_flight = VecDeque::new();
            let mut rounds = 0u32;
            while !rec.is_complete() {
                let pool = candidates(&mut rec);
                let before = rec.recorder().unwrap().frames().len();
                rec.round(&mut launched);
                plain.round(&mut plain_launched);
                assert_eq!(launched, plain_launched, "{s}: same picks, same inputs");
                let emitted = &rec.recorder().unwrap().frames()[before..];
                if pool.is_empty() {
                    assert!(emitted.is_empty(), "{s}: an empty pool is not a round");
                    empty_rounds += 1;
                } else {
                    let Event::Round {
                        round,
                        candidates,
                        picked,
                    } = &emitted[0].event
                    else {
                        panic!("{s}: round frame first, got {:?}", emitted[0]);
                    };
                    assert_eq!(*round, rounds, "{s}: round numbers dense from 0");
                    rounds += 1;
                    assert_eq!(*candidates, pool, "{s}");
                    assert!(picked.iter().all(|a| candidates.contains(a)), "{s}");
                    let launch_frames: Vec<AttrId> = emitted[1..]
                        .iter()
                        .map(|f| match f.event {
                            Event::Launch { attr, .. } => attr,
                            ref other => panic!("{s}: launch frames only, got {other:?}"),
                        })
                        .collect();
                    assert_eq!(launch_frames, *picked, "{s}: launches in pick order");
                    let launched_attrs: Vec<AttrId> = launched.iter().map(|(a, _)| *a).collect();
                    assert_eq!(launched_attrs, *picked, "{s}");
                }
                in_flight.extend(launched.drain(..));
                plain_launched.clear();
                let (a, inputs) = in_flight.pop_front().expect("not stalled");
                let v = schema.attr(a).task.compute(&inputs);
                rec.complete(a, v.clone());
                plain.complete(a, v);
            }
            assert!(plain.is_complete(), "{s}");
            assert_eq!(plain.metrics().work, rec.metrics().work, "{s}");
        }
        assert!(empty_rounds > 0, "some round saw an empty pool");
    }

    #[test]
    fn launch_of_non_candidate_panics() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let mut rt = InstanceRuntime::new(schema, strat("PCE100"), &sv).unwrap();
        candidates(&mut rt);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.launch(q2)));
        assert!(r.is_err(), "q2 is READY but not enabled under C");
    }

    #[test]
    fn sources_missing_is_reported() {
        let (schema, _sv, ..) = promo_like();
        let empty = SourceValues::new();
        assert!(InstanceRuntime::new(schema, strat("PCE0"), &empty).is_err());
    }

    #[test]
    fn duplicate_data_inputs_count_with_multiplicity() {
        // q lists the same input twice: pending_inputs must start at 2
        // and drain exactly twice, and the task body receives both
        // copies in order.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let x = b.attr("x", Task::const_query(2, 21i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::query(1, |ins| {
                Value::Int(
                    ins[0].as_f64().unwrap_or(0.0) as i64 + ins[1].as_f64().unwrap_or(0.0) as i64,
                )
            }),
            vec![x, x],
            Expr::Lit(true),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        assert_eq!(rt.state(q), AttrState::Enabled, "x not stable yet");
        let inputs = rt.launch(x);
        rt.complete(x, schema.attr(x).task.compute(&inputs));
        assert_eq!(rt.state(q), AttrState::ReadyEnabled);
        let inputs = rt.launch(q);
        assert_eq!(inputs, vec![Value::Int(21), Value::Int(21)]);
        rt.complete(q, schema.attr(q).task.compute(&inputs));
        assert_eq!(rt.stable_value(q), Some(&Value::Int(42)));
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(rt.agrees_with(&snap));
    }

    #[test]
    fn attr_as_both_data_input_and_enabling_ref() {
        // x feeds q as data AND gates it: two distinct edges, both
        // killed independently without double decrement.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let x = b.attr("x", Task::const_query(1, 5i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(1, "ran"),
            vec![x],
            Expr::cmp_const(x, CmpOp::Gt, 10i64),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        let inputs = rt.launch(x);
        rt.complete(x, schema.attr(x).task.compute(&inputs));
        // x=5 fails the gate: q disabled, instance complete, no work on q.
        assert_eq!(rt.state(q), AttrState::Disabled);
        assert!(rt.is_complete());
        assert_eq!(rt.metrics().work, 1);
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(rt.agrees_with(&snap));
    }

    #[test]
    fn multi_target_partial_disable_prunes_only_dead_branch() {
        // Two targets t1, t2 behind separate chains; t1's chain
        // disables, t2's survives. The t1 chain must be pruned while
        // the t2 chain executes.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let gate1 = b.attr("gate1", Task::const_query(1, 0i64), vec![], Expr::Lit(true));
        let work1 = b.attr("work1", Task::const_query(9, "w1"), vec![], Expr::Lit(true));
        let t1 = b.attr(
            "t1",
            Task::const_query(1, "t1"),
            vec![work1],
            Expr::cmp_const(gate1, CmpOp::Gt, 0i64),
        );
        let work2 = b.attr(
            "work2",
            Task::const_query(2, "w2"),
            vec![s],
            Expr::Lit(true),
        );
        let t2 = b.attr(
            "t2",
            Task::const_query(1, "t2"),
            vec![work2],
            Expr::Lit(true),
        );
        b.mark_target(t1);
        b.mark_target(t2);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        // Sequential earliest-first: gate1 resolves before work1 would
        // launch, so backward propagation prunes the dead branch. (At
        // 100% parallelism work1 launches at t=0 and its work is
        // committed — pruning only saves what has not been sent.)
        let out = crate::engine::run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        assert_eq!(out.runtime.state(t1), AttrState::Disabled);
        assert_eq!(out.runtime.stable_value(t2), Some(&Value::str("t2")));
        // work1 (cost 9) must have been pruned: total = gate1 + work2 + t2.
        assert_eq!(out.metrics.work, 1 + 2 + 1, "work1 pruned as unneeded");
        assert!(!out.runtime.is_needed(work1));
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(out.runtime.agrees_with(&snap));
        // Contrast: full parallelism commits work1 before the gate fails.
        let out100 = crate::engine::run_unit_time(&schema, strat("PCE100"), &sv).unwrap();
        assert_eq!(out100.metrics.work, 13);
        assert!(out100.runtime.agrees_with(&snap));
    }

    #[test]
    fn isnull_gate_on_disabled_attr_enables_consumer() {
        // q is enabled precisely BECAUSE x is disabled (fallback path).
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let x = b.attr("x", Task::const_query(3, 1i64), vec![], Expr::Lit(false));
        let q = b.attr(
            "q",
            Task::const_query(1, "fallback"),
            vec![],
            Expr::IsNull(x),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let out = crate::engine::run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        assert_eq!(out.runtime.stable_value(q), Some(&Value::str("fallback")));
        assert_eq!(out.metrics.work, 1, "x never ran; only q did");
    }
}

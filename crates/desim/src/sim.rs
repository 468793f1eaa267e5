//! The simulation executor.
//!
//! A simulation couples a user *model* with an event calendar and a
//! virtual clock. The model consumes events one at a time and may
//! schedule further events through the [`Scheduler`] handle it is given.
//! This "event-routine" style (rather than CSIM's coroutine processes)
//! keeps the kernel allocation-free in steady state and trivially
//! deterministic.

use crate::calendar::{Calendar, EventId};
use crate::time::SimTime;

/// Scheduling interface handed to the model on every event.
///
/// Borrowing rules prevent the model from holding `&mut self` while also
/// mutating the calendar, so the executor splits them: the model gets
/// `&mut Scheduler` alongside its own `&mut self`.
pub struct Scheduler<E> {
    now: SimTime,
    calendar: Calendar<E>,
    stop_requested: bool,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            calendar: Calendar::new(),
            stop_requested: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventId {
        let at = self.now + delay;
        self.calendar.schedule(at, event)
    }

    /// Schedule `event` at an absolute virtual time. Panics if `at` is in
    /// the virtual past: time travel would silently corrupt statistics.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?} at={:?}",
            self.now,
            at
        );
        self.calendar.schedule(at, event)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.calendar.cancel(id)
    }

    /// Ask the executor to stop after the current event returns.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// A simulation model: reacts to events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at virtual time `sched.now()`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Outcome of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained: no events left.
    Exhausted,
    /// The model called [`Scheduler::stop`].
    Stopped,
    /// The configured horizon was reached; later events remain pending.
    HorizonReached,
}

/// The simulation executor: owns the model and the scheduler.
pub struct Simulation<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation around `model` with an empty calendar at t=0.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Seed an initial event before running.
    pub fn prime(&mut self, at: SimTime, event: M::Event) -> EventId {
        self.sched.calendar.schedule(at, event)
    }

    /// Access the model (e.g. to collect statistics after a run).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consume the simulation, returning the model (for post-run
    /// statistics extraction).
    pub fn into_model(self) -> M {
        self.model
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Run until the calendar drains or the model stops the run.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run until `horizon` (inclusive), the calendar drains, or the model
    /// requests a stop — whichever comes first.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.sched.stop_requested {
                self.sched.stop_requested = false;
                return RunOutcome::Stopped;
            }
            match self.sched.calendar.peek_time() {
                None => return RunOutcome::Exhausted,
                Some(t) if t > horizon => {
                    // Advance the clock to the horizon so statistics
                    // windows close consistently.
                    self.sched.now = horizon;
                    return RunOutcome::HorizonReached;
                }
                Some(_) => {}
            }
            let (t, ev) = self
                .sched
                .calendar
                .pop()
                .expect("peek saw an event, pop must succeed");
            debug_assert!(t >= self.sched.now, "calendar went backwards");
            self.sched.now = t;
            self.model.handle(ev, &mut self.sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts ticks and re-arms itself a fixed number of times.
    struct Ticker {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(SimTime::from_millis(10), ());
            }
        }
    }

    #[test]
    fn ticker_runs_to_exhaustion() {
        let mut sim = Simulation::new(Ticker {
            remaining: 3,
            fired_at: vec![],
        });
        sim.prime(SimTime::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(
            sim.model().fired_at,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30),
            ]
        );
    }

    #[test]
    fn horizon_cuts_off_and_clock_lands_on_horizon() {
        let mut sim = Simulation::new(Ticker {
            remaining: 1000,
            fired_at: vec![],
        });
        sim.prime(SimTime::ZERO, ());
        let outcome = sim.run_until(SimTime::from_millis(25));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().fired_at.len(), 3); // t=0,10,20
        assert_eq!(sim.now(), SimTime::from_millis(25));
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
            if ev == 2 {
                sched.stop();
            }
        }
    }

    #[test]
    fn model_can_stop_run() {
        let mut sim = Simulation::new(Stopper);
        sim.prime(SimTime::from_millis(1), 1);
        sim.prime(SimTime::from_millis(2), 2);
        sim.prime(SimTime::from_millis(3), 3);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.now(), SimTime::from_millis(2));
        // Remaining event still pending; a subsequent run drains it.
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    /// A model that arms a timeout and cancels it when work finishes
    /// first — the classic watchdog pattern.
    struct Watchdog {
        timeout: Option<crate::calendar::EventId>,
        timed_out: bool,
        finished: bool,
    }

    #[derive(Clone, Copy)]
    enum WEv {
        Start,
        Work,
        Timeout,
    }

    impl Model for Watchdog {
        type Event = WEv;
        fn handle(&mut self, ev: WEv, sched: &mut Scheduler<WEv>) {
            match ev {
                WEv::Start => {
                    self.timeout = Some(sched.schedule_in(SimTime::from_millis(100), WEv::Timeout));
                    sched.schedule_in(SimTime::from_millis(10), WEv::Work);
                }
                WEv::Work => {
                    self.finished = true;
                    if let Some(id) = self.timeout.take() {
                        assert!(sched.cancel(id));
                    }
                }
                WEv::Timeout => self.timed_out = true,
            }
        }
    }

    #[test]
    fn cancelled_timeout_never_fires() {
        let mut sim = Simulation::new(Watchdog {
            timeout: None,
            timed_out: false,
            finished: false,
        });
        sim.prime(SimTime::ZERO, WEv::Start);
        assert_eq!(sim.run(), RunOutcome::Exhausted);
        let m = sim.into_model();
        assert!(m.finished);
        assert!(!m.timed_out, "cancelled watchdog must not fire");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                sched.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.prime(SimTime::from_millis(5), ());
        sim.run();
    }
}

//! FCFS multi-server service centers.
//!
//! A [`ServiceCenter`] models `k` identical servers in front of a single
//! FIFO queue — the building block of the \[ACL87\]-style database model
//! (CPU pool, disk array). The center itself does not know about the
//! event calendar; it answers "when would this job finish?" and the model
//! turns that into a scheduled completion event. This keeps the center
//! reusable under any event alphabet.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A job waiting in, or being served by, a service center.
#[derive(Clone, Debug)]
struct Waiting<J> {
    job: J,
    service: SimTime,
    enqueued_at: SimTime,
}

/// A job admitted to a server, returned to the caller so it can schedule
/// the completion event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admission<J> {
    /// The job payload.
    pub job: J,
    /// Absolute completion time.
    pub completes_at: SimTime,
    /// Time the job spent queueing before service began.
    pub queue_wait: SimTime,
}

/// `k`-server FCFS queueing station.
pub struct ServiceCenter<J> {
    servers: usize,
    busy: usize,
    queue: VecDeque<Waiting<J>>,
    completed: u64,
}

impl<J> ServiceCenter<J> {
    /// Create a center with `servers` identical servers. Panics if zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a service center needs at least one server");
        ServiceCenter {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            completed: 0,
        }
    }

    /// Number of servers currently serving a job.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Total jobs in the station (waiting + in service).
    pub fn population(&self) -> usize {
        self.busy + self.queue.len()
    }

    /// Jobs that have completed service.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Submit a job requiring `service` time. If a server is free the job
    /// is admitted immediately and the admission (with completion time) is
    /// returned; otherwise the job queues and `None` is returned.
    pub fn submit(&mut self, now: SimTime, job: J, service: SimTime) -> Option<Admission<J>> {
        if self.busy < self.servers {
            self.busy += 1;
            Some(Admission {
                job,
                completes_at: now + service,
                queue_wait: SimTime::ZERO,
            })
        } else {
            self.queue.push_back(Waiting {
                job,
                service,
                enqueued_at: now,
            });
            None
        }
    }

    /// Notify the center that a job finished service at `now`. If a job was
    /// waiting, it is admitted to the freed server and returned so the
    /// caller can schedule its completion event.
    pub fn complete(&mut self, now: SimTime) -> Option<Admission<J>> {
        debug_assert!(self.busy > 0, "completion with no busy server");
        self.completed += 1;
        if let Some(w) = self.queue.pop_front() {
            // Server stays busy, next job starts immediately.
            Some(Admission {
                job: w.job,
                completes_at: now + w.service,
                queue_wait: now.saturating_sub(w.enqueued_at),
            })
        } else {
            self.busy -= 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes_jobs() {
        let mut c: ServiceCenter<&str> = ServiceCenter::new(1);
        let t0 = SimTime::ZERO;
        let a = c.submit(t0, "a", SimTime::from_millis(10));
        assert_eq!(
            a,
            Some(Admission {
                job: "a",
                completes_at: SimTime::from_millis(10),
                queue_wait: SimTime::ZERO
            })
        );
        // Second job queues.
        assert!(c.submit(t0, "b", SimTime::from_millis(5)).is_none());
        // When "a" completes, "b" is admitted with its wait recorded.
        let b = c.complete(SimTime::from_millis(10)).unwrap();
        assert_eq!(b.job, "b");
        assert_eq!(b.completes_at, SimTime::from_millis(15));
        assert_eq!(b.queue_wait, SimTime::from_millis(10));
        assert!(c.complete(SimTime::from_millis(15)).is_none());
        assert_eq!(c.completed(), 2);
        assert_eq!(c.busy(), 0);
    }

    #[test]
    fn multi_server_admits_up_to_k() {
        let mut c: ServiceCenter<u32> = ServiceCenter::new(3);
        let t0 = SimTime::ZERO;
        for i in 0..3 {
            assert!(c.submit(t0, i, SimTime::from_millis(10)).is_some());
        }
        assert_eq!(c.busy(), 3);
        assert!(c.submit(t0, 3, SimTime::from_millis(10)).is_none());
        assert_eq!(c.population(), 4);
    }

    #[test]
    fn fcfs_order_preserved() {
        let mut c: ServiceCenter<u32> = ServiceCenter::new(1);
        c.submit(SimTime::ZERO, 0, SimTime::from_millis(1));
        for i in 1..=5 {
            c.submit(SimTime::ZERO, i, SimTime::from_millis(1));
        }
        let mut order = vec![];
        let mut now = SimTime::from_millis(1);
        let mut next = c.complete(now);
        while let Some(adm) = next {
            order.push(adm.job);
            now = adm.completes_at;
            next = c.complete(now);
        }
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _: ServiceCenter<()> = ServiceCenter::new(0);
    }
}

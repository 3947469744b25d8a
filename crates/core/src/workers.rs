//! The node's request-execution resources: CPUs and threads.
//!
//! Each node has a small number of CPU workers (service time is CPU time)
//! and a larger pool of request threads. A normally-executing request holds
//! one thread and one CPU worker for its service time. The two fault modes
//! that "hang" requests differ in what they hold:
//!
//! * a **deadlocked** call parks its thread (no CPU) — slow thread-pool
//!   exhaustion,
//! * an **infinite loop** burns a CPU worker forever — immediate capacity
//!   loss.
//!
//! Queueing happens when all CPUs are busy; refused admission happens when
//! the thread pool is exhausted. Both effects drive the response-time
//! dynamics of Figure 4.

use std::collections::VecDeque;

use crate::request::{ReqId, Request};

/// Why a request could not be admitted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AdmitError {
    /// Every thread is occupied (in service, queued, or hung).
    ThreadsExhausted,
}

/// The CPU/thread model of one node.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    cpus: usize,
    threads: usize,
    /// Requests holding a CPU right now (in service).
    in_service: Vec<ReqId>,
    /// Requests holding a CPU forever (infinite loops) — they reduce
    /// effective capacity until their component is microrebooted.
    cpu_hogs: Vec<ReqId>,
    /// Requests parked without CPU (deadlocks).
    parked: Vec<ReqId>,
    /// Requests waiting for a CPU.
    queue: VecDeque<Request>,
}

impl WorkerPool {
    /// Creates a pool with the given CPU and thread counts.
    ///
    /// # Panics
    ///
    /// Panics if either is zero.
    pub(crate) fn new(cpus: usize, threads: usize) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        assert!(threads >= cpus, "thread pool must cover the CPUs");
        WorkerPool {
            cpus,
            threads,
            in_service: Vec::new(),
            cpu_hogs: Vec::new(),
            parked: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Returns the number of CPUs currently free.
    pub(crate) fn free_cpus(&self) -> usize {
        self.cpus
            .saturating_sub(self.in_service.len() + self.cpu_hogs.len())
    }

    /// Returns the number of threads currently held.
    pub(crate) fn threads_held(&self) -> usize {
        self.in_service.len() + self.cpu_hogs.len() + self.parked.len() + self.queue.len()
    }

    /// Returns the number of requests queued for a CPU.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Admits a request, queueing it for a CPU.
    pub(crate) fn admit(&mut self, req: Request) -> Result<(), AdmitError> {
        if self.threads_held() >= self.threads {
            return Err(AdmitError::ThreadsExhausted);
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Returns how many queued requests the free CPUs can start now.
    pub(crate) fn startable(&self) -> usize {
        self.free_cpus().min(self.queue.len())
    }

    /// Starts the next queued request if a CPU is free, returning it.
    pub(crate) fn pop_ready(&mut self) -> Option<Request> {
        if self.free_cpus() == 0 {
            return None;
        }
        let req = self.queue.pop_front()?;
        self.in_service.push(req.id);
        Some(req)
    }

    /// Converts an in-service request into a parked (deadlocked) one,
    /// freeing its CPU but keeping its thread.
    pub(crate) fn park(&mut self, id: ReqId) {
        if let Some(pos) = self.in_service.iter().position(|r| *r == id) {
            self.in_service.swap_remove(pos);
            self.parked.push(id);
        }
    }

    /// Converts an in-service request into a CPU hog (infinite loop).
    pub(crate) fn hog(&mut self, id: ReqId) {
        if let Some(pos) = self.in_service.iter().position(|r| *r == id) {
            self.in_service.swap_remove(pos);
            self.cpu_hogs.push(id);
        }
    }

    /// Completes an in-service request, freeing its CPU and thread.
    ///
    /// Returns false if the id was not in service (e.g., already killed).
    pub(crate) fn complete(&mut self, id: ReqId) -> bool {
        if let Some(pos) = self.in_service.iter().position(|r| *r == id) {
            self.in_service.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Kills a request wherever it is (service, hog, parked or queued).
    ///
    /// Returns true if it was found. Used by microreboots ("kill all
    /// shepherding threads") and TTL expiry.
    pub(crate) fn kill(&mut self, id: ReqId) -> bool {
        if self.complete(id) {
            return true;
        }
        if let Some(pos) = self.cpu_hogs.iter().position(|r| *r == id) {
            self.cpu_hogs.swap_remove(pos);
            return true;
        }
        if let Some(pos) = self.parked.iter().position(|r| *r == id) {
            self.parked.swap_remove(pos);
            return true;
        }
        if let Some(pos) = self.queue.iter().position(|r| r.id == id) {
            self.queue.remove(pos);
            return true;
        }
        false
    }

    /// Kills everything (process restart), returning the ids of all
    /// requests that were holding resources.
    pub(crate) fn kill_all(&mut self) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = self.in_service.drain(..).collect();
        ids.append(&mut self.cpu_hogs);
        ids.append(&mut self.parked);
        ids.extend(self.queue.drain(..).map(|r| r.id));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OpCode;
    use simcore::SimTime;

    /// Starts as many queued requests as free CPUs allow, counting them.
    fn start_ready(p: &mut WorkerPool) -> usize {
        std::iter::from_fn(|| p.pop_ready()).count()
    }

    fn req(id: u64) -> Request {
        Request {
            id: ReqId(id),
            op: OpCode(0),
            session: None,
            idempotent: true,
            arg: 0,
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn starts_up_to_cpu_count() {
        let mut p = WorkerPool::new(2, 10);
        for i in 0..5 {
            p.admit(req(i)).unwrap();
        }
        assert_eq!(p.startable(), 2);
        assert_eq!(start_ready(&mut p), 2);
        assert_eq!(p.queued(), 3);
        assert_eq!(p.free_cpus(), 0);
        assert!(p.complete(ReqId(0)));
        assert_eq!(p.startable(), 1);
        assert_eq!(start_ready(&mut p), 1);
    }

    #[test]
    fn thread_pool_exhaustion_refuses_admission() {
        let mut p = WorkerPool::new(1, 3);
        for i in 0..3 {
            p.admit(req(i)).unwrap();
        }
        assert_eq!(p.admit(req(99)).unwrap_err(), AdmitError::ThreadsExhausted);
        assert_eq!(p.threads_held(), 3);
    }

    #[test]
    fn parked_requests_free_cpu_but_hold_thread() {
        let mut p = WorkerPool::new(1, 5);
        p.admit(req(1)).unwrap();
        assert_eq!(start_ready(&mut p), 1);
        p.park(ReqId(1));
        assert_eq!(p.free_cpus(), 1, "deadlock releases the CPU");
        assert_eq!(p.threads_held(), 1, "but keeps the thread");
        p.admit(req(2)).unwrap();
        assert_eq!(start_ready(&mut p), 1, "CPU available for new work");
    }

    #[test]
    fn hogs_hold_cpu_forever() {
        let mut p = WorkerPool::new(2, 10);
        p.admit(req(1)).unwrap();
        start_ready(&mut p);
        p.hog(ReqId(1));
        assert_eq!(p.free_cpus(), 1, "loop burns one CPU");
        // Killing the hog restores capacity (what a microreboot does).
        assert!(p.kill(ReqId(1)));
        assert_eq!(p.free_cpus(), 2);
    }

    #[test]
    fn kill_finds_requests_anywhere() {
        let mut p = WorkerPool::new(1, 10);
        for i in 0..4 {
            p.admit(req(i)).unwrap();
        }
        start_ready(&mut p);
        p.park(ReqId(0));
        assert!(p.kill(ReqId(0)), "parked");
        assert!(p.kill(ReqId(1)), "queued");
        assert!(!p.kill(ReqId(0)), "already gone");
        assert!(!p.kill(ReqId(99)), "never existed");
    }

    #[test]
    fn kill_all_drains_everything() {
        let mut p = WorkerPool::new(2, 10);
        for i in 0..6 {
            p.admit(req(i)).unwrap();
        }
        start_ready(&mut p);
        p.park(ReqId(0));
        let killed = p.kill_all();
        assert_eq!(killed.len(), 6);
        assert_eq!(p.threads_held(), 0);
        assert_eq!(p.free_cpus(), 2);
    }
}

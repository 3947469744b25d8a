//! The request pipeline: admission, execution bookkeeping and kill paths.
//!
//! [`RequestPipeline`] owns everything about a request between admission
//! and its response leaving the server: the [`WorkerPool`] (CPU slots,
//! thread slots, the admission queue), the set of running requests whose
//! completion is already scheduled, and the set of hung requests parked or
//! hogging inside a component. The recovery lifecycle reaches in through
//! the `take_*` methods, which atomically remove victims and release their
//! worker resources; transaction rollback and response fabrication stay
//! with the caller, because the pipeline knows nothing about the database
//! or HTTP statuses.

use components::descriptor::ComponentId;
use simcore::SimTime;
use statestore::TxnId;

use crate::context::{ComponentSet, HangKind};
use crate::request::{ReqId, Request, Response};
use crate::workers::{AdmitError, WorkerPool};

/// A request in service: handler already executed, completion scheduled.
pub(crate) struct RunningReq {
    pub(crate) req: Request,
    pub(crate) response: Response,
    pub(crate) touched: ComponentSet,
    pub(crate) txn: Option<TxnId>,
}

/// A hung request: thread stuck inside a component.
pub(crate) struct HungReq {
    pub(crate) req: Request,
    pub(crate) component: ComponentId,
    pub(crate) since: SimTime,
    pub(crate) txn: Option<TxnId>,
}

/// A request forcibly removed from the pipeline by a kill path.
pub(crate) struct Victim {
    pub(crate) req: Request,
    pub(crate) txn: Option<TxnId>,
    /// The component it was stuck in, when it was hung (kill paths blame
    /// the hang site; running victims are blamed on the rebooted group).
    pub(crate) hung_in: Option<ComponentId>,
}

/// Admission, execution and kill bookkeeping for one server's requests.
pub(crate) struct RequestPipeline {
    workers: WorkerPool,
    /// Ordered by request id, so kill paths visit victims deterministically.
    /// Request ids are issued monotonically, so registration is almost
    /// always a pure append onto the dense vec; completion binary-searches
    /// instead of walking tree nodes on every finished request.
    running: Vec<(ReqId, RunningReq)>,
    hung: Vec<(ReqId, HungReq)>,
}

/// Inserts into a request-id-sorted vec; appends on the (overwhelmingly
/// common) monotone fast path.
fn insert_sorted<T>(v: &mut Vec<(ReqId, T)>, id: ReqId, val: T) {
    match v.last() {
        Some(&(last, _)) if last < id => v.push((id, val)),
        None => v.push((id, val)),
        _ => match v.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(i) => v[i] = (id, val),
            Err(i) => v.insert(i, (id, val)),
        },
    }
}

/// Removes from a request-id-sorted vec.
fn remove_sorted<T>(v: &mut Vec<(ReqId, T)>, id: ReqId) -> Option<T> {
    let i = v.binary_search_by_key(&id, |&(i, _)| i).ok()?;
    Some(v.remove(i).1)
}

impl RequestPipeline {
    pub(crate) fn new(cpus: usize, threads: usize) -> Self {
        RequestPipeline {
            workers: WorkerPool::new(cpus, threads),
            running: Vec::new(),
            hung: Vec::new(),
        }
    }

    /// Returns the number of requests queued for a CPU.
    pub(crate) fn queued(&self) -> usize {
        self.workers.queued()
    }

    /// Returns the number of hung requests.
    pub(crate) fn hung_count(&self) -> usize {
        self.hung.len()
    }

    /// Returns when the longest-hung request got stuck, if any is stuck.
    pub(crate) fn oldest_hung(&self) -> Option<SimTime> {
        self.hung.iter().map(|(_, h)| h.since).min()
    }

    /// Admits a request into the worker pool.
    pub(crate) fn admit(&mut self, req: Request) -> Result<(), AdmitError> {
        self.workers.admit(req)
    }

    /// Returns how many queued requests the free CPUs can start now.
    pub(crate) fn startable(&self) -> usize {
        self.workers.startable()
    }

    /// Moves the next queued request onto a free CPU, returning it for
    /// execution.
    pub(crate) fn pop_ready(&mut self) -> Option<Request> {
        self.workers.pop_ready()
    }

    /// Registers an executed request whose completion is scheduled.
    pub(crate) fn record_running(&mut self, id: ReqId, rr: RunningReq) {
        insert_sorted(&mut self.running, id, rr);
    }

    /// Registers a hung request, parking or hogging its worker.
    pub(crate) fn record_hung(&mut self, id: ReqId, kind: HangKind, h: HungReq) {
        match kind {
            HangKind::Park => self.workers.park(id),
            HangKind::Hog => self.workers.hog(id),
        }
        insert_sorted(&mut self.hung, id, h);
    }

    /// Completes a running request, releasing its worker. Returns `None`
    /// if it was killed in the meantime.
    pub(crate) fn finish(&mut self, id: ReqId) -> Option<RunningReq> {
        let rr = remove_sorted(&mut self.running, id)?;
        self.workers.complete(id);
        Some(rr)
    }

    /// Removes (killing their workers) every running request that touched
    /// one of `members` and every hung request stuck inside one — a
    /// microreboot's thread kill. Running victims come first, each set in
    /// request-id order.
    pub(crate) fn take_victims_touching(&mut self, members: &[ComponentId]) -> Vec<Victim> {
        let mut victims = Vec::new();
        let running_ids: Vec<ReqId> = self
            .running
            .iter()
            .filter(|(_, rr)| members.iter().any(|m| rr.touched.contains(*m)))
            .map(|&(id, _)| id)
            .collect();
        for rid in running_ids {
            let rr = remove_sorted(&mut self.running, rid).expect("victim exists");
            self.workers.kill(rid);
            victims.push(Victim {
                req: rr.req,
                txn: rr.txn,
                hung_in: None,
            });
        }
        let hung_ids: Vec<ReqId> = self
            .hung
            .iter()
            .filter(|(_, h)| members.contains(&h.component))
            .map(|&(id, _)| id)
            .collect();
        for rid in hung_ids {
            let h = remove_sorted(&mut self.hung, rid).expect("victim exists");
            self.workers.kill(rid);
            victims.push(Victim {
                req: h.req,
                txn: h.txn,
                hung_in: Some(h.component),
            });
        }
        victims
    }

    /// Removes (killing their workers) every hung request older than
    /// `ttl` — the lease sweep.
    pub(crate) fn take_expired_hung(
        &mut self,
        now: SimTime,
        ttl: simcore::SimDuration,
    ) -> Vec<Victim> {
        let expired: Vec<ReqId> = self
            .hung
            .iter()
            .filter(|(_, h)| now - h.since >= ttl)
            .map(|&(id, _)| id)
            .collect();
        let mut victims = Vec::new();
        for rid in expired {
            let h = remove_sorted(&mut self.hung, rid).expect("victim exists");
            self.workers.kill(rid);
            victims.push(Victim {
                req: h.req,
                txn: h.txn,
                hung_in: Some(h.component),
            });
        }
        victims
    }

    /// Empties the whole pipeline — queued, running and hung — for the
    /// coarse restart levels. Queued requests that never started produce
    /// no victim (their clients time out); started ones are returned in
    /// the worker pool's drain order, then any stragglers by request id.
    pub(crate) fn take_all(&mut self) -> Vec<Victim> {
        let mut victims = Vec::new();
        for rid in self.workers.kill_all() {
            let (req, txn, hung_in) = if let Some(rr) = remove_sorted(&mut self.running, rid) {
                (rr.req, rr.txn, None)
            } else if let Some(h) = remove_sorted(&mut self.hung, rid) {
                (h.req, h.txn, Some(h.component))
            } else {
                // Queued, never started: the kill_all drained its queue
                // slot; there is nothing to respond to.
                continue;
            };
            victims.push(Victim { req, txn, hung_in });
        }
        // The two key streams are each ordered, but their concatenation is
        // not: merge-sort them so stragglers still die in request-id order.
        let mut leftover: Vec<ReqId> = self
            .running
            .iter()
            .map(|&(id, _)| id)
            .chain(self.hung.iter().map(|&(id, _)| id))
            .collect();
        leftover.sort_unstable();
        for rid in leftover {
            let (req, txn, hung_in) = if let Some(rr) = remove_sorted(&mut self.running, rid) {
                (rr.req, rr.txn, None)
            } else {
                let h = remove_sorted(&mut self.hung, rid).expect("key came from hung");
                (h.req, h.txn, Some(h.component))
            };
            victims.push(Victim { req, txn, hung_in });
        }
        debug_assert!(self.running.is_empty() && self.hung.is_empty());
        victims
    }
}

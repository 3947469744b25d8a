//! Action-weighted throughput (Taw) accounting.
//!
//! Section 4: "An action succeeds or fails atomically: if all operations
//! within the action succeed, they count toward action-weighted goodput
//! ('good Taw'); if an operation fails, all operations in the
//! corresponding action are marked failed, counting toward action-weighted
//! badput ('bad Taw')." The tracker therefore buffers the operations of
//! each open action and only attributes them to the per-second good/bad
//! series when the action closes — retroactive failure marking falls out
//! naturally.
//!
//! The tracker also records response times (Figure 4, Table 4) and
//! functional-group availability gaps (Figure 2).

use std::hash::{BuildHasherDefault, Hasher};

use simcore::stats::Summary;
use simcore::telemetry::{TelemetryEvent, TelemetrySink};
use simcore::{SimDuration, SimTime};

use crate::catalog::FunctionalGroup;

/// Identifier of one user action.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActionId(pub u64);

/// Hashes an [`ActionId`] with one multiply: the Fibonacci constant
/// spreads dense and sparse ids alike, and the rotation brings the well
/// mixed high bits down to the low bits the table indexes by. It has no
/// per-process seed, so a run is a pure function of its seed; the ids are
/// the client pool's own, so nobody chooses them to collide.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("ActionId hashes as one u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The open actions' operation buffers. Lookup, insert and remove are
/// O(1), and allocate nothing once warm: the table grows with the most
/// actions open at once, never with the span of their ids.
#[expect(
    clippy::disallowed_types,
    reason = "D001: never iterated in its own order: `close_all` sorts the ids first"
)]
type OpenActions = std::collections::HashMap<ActionId, Vec<OpRecord>, BuildHasherDefault<IdHasher>>;

#[derive(Clone, Debug)]
struct OpRecord {
    finished_at: SimTime,
    started_at: SimTime,
    ok: bool,
    group: FunctionalGroup,
}

/// Aggregate results of a run.
#[derive(Clone, Debug, Default)]
pub struct TawSummary {
    /// Operations that counted toward good Taw.
    pub good_ops: u64,
    /// Operations that counted toward bad Taw.
    pub bad_ops: u64,
    /// Actions that succeeded atomically.
    pub good_actions: u64,
    /// Actions that failed atomically.
    pub bad_actions: u64,
}

/// Columns of a per-second row.
const GOOD: usize = 0;
const BAD: usize = 1;
const RT_MS_SUM: usize = 2;
const RT_N: usize = 3;

/// The Taw tracker.
#[derive(Debug, Default)]
pub struct TawTracker {
    /// One row per simulated second from 0 (seconds are dense): good and
    /// bad Taw, and the response-time sum/count behind Figure 4's
    /// timeline. Closing an action writes into the *past* seconds its
    /// operations finished in, so the rows are addressed by index.
    seconds: Vec<[f64; 4]>,
    /// Open actions. Bulk closes sort their ids, so they attribute in a
    /// deterministic order.
    open: OpenActions,
    /// Emptied operation buffers of closed actions, reused by later ones.
    spare: Vec<Vec<OpRecord>>,
    summary: TawSummary,
    response_ms: Summary,
    /// Spans of eventually-failed requests per functional group (Fig 2).
    gaps: Vec<(FunctionalGroup, SimTime, SimTime)>,
    over_8s: u64,
}

/// The paper's Web-abandonment threshold: 8 seconds (Section 5.3).
pub const EIGHT_SECONDS: SimDuration = SimDuration::from_secs(8);

impl TawTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        TawTracker::default()
    }

    /// The row of the second containing `at`.
    fn row_mut(&mut self, at: SimTime) -> &mut [f64; 4] {
        let s = at.second_index() as usize;
        if s >= self.seconds.len() {
            self.seconds.resize(s + 1, [0.0; 4]);
        }
        &mut self.seconds[s]
    }

    /// Sums one column over the closed range `[from, to]` of seconds.
    fn sum_range(&self, column: usize, from: u64, to: u64) -> f64 {
        let end = self.seconds.len().min(to.saturating_add(1) as usize);
        let rows = self.seconds.get(from as usize..end).unwrap_or(&[]);
        rows.iter().fold(0.0, |sum, row| sum + row[column])
    }

    /// Records one completed operation under an open action.
    pub fn record_op(
        &mut self,
        action: ActionId,
        group: FunctionalGroup,
        started_at: SimTime,
        finished_at: SimTime,
        ok: bool,
    ) {
        let rt = finished_at - started_at;
        self.response_ms.record(rt.as_millis_f64());
        let row = self.row_mut(finished_at);
        row[RT_MS_SUM] += rt.as_millis_f64();
        row[RT_N] += 1.0;
        if rt > EIGHT_SECONDS {
            self.over_8s += 1;
        }
        let spare = &mut self.spare;
        self.open
            .entry(action)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(OpRecord {
                finished_at,
                started_at,
                ok,
                group,
            });
    }

    /// Closes an action, attributing its operations retroactively.
    ///
    /// The action is good only if *every* operation succeeded.
    pub fn close_action(&mut self, action: ActionId) {
        let Some(mut ops) = self.open.remove(&action) else {
            return;
        };
        let good = ops.iter().all(|o| o.ok);
        if good {
            self.summary.good_actions += 1;
            self.summary.good_ops += ops.len() as u64;
        } else {
            self.summary.bad_actions += 1;
            self.summary.bad_ops += ops.len() as u64;
        }
        for op in ops.drain(..) {
            if good {
                self.row_mut(op.finished_at)[GOOD] += 1.0;
            } else {
                self.row_mut(op.finished_at)[BAD] += 1.0;
                self.gaps.push((op.group, op.started_at, op.finished_at));
            }
        }
        self.spare.push(ops);
    }

    /// Closes every still-open action (end of run), in ascending action-id
    /// order.
    pub fn close_all(&mut self) {
        let mut ids: Vec<ActionId> = self.open.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.close_action(id);
        }
    }

    /// Returns the run summary so far (closed actions only).
    pub fn summary(&self) -> TawSummary {
        self.summary.clone()
    }

    /// Returns good Taw summed over a second range (inclusive).
    pub fn good_in(&self, from: u64, to: u64) -> f64 {
        self.sum_range(GOOD, from, to)
    }

    /// Returns bad Taw summed over a second range (inclusive).
    pub fn bad_in(&self, from: u64, to: u64) -> f64 {
        self.sum_range(BAD, from, to)
    }

    /// Returns response-time statistics in milliseconds.
    pub fn response_ms(&mut self) -> &mut Summary {
        &mut self.response_ms
    }

    /// Returns the number of requests that exceeded 8 seconds (Table 4).
    pub fn over_8s(&self) -> u64 {
        self.over_8s
    }

    /// Returns the mean response time (ms) in one second of the run, or
    /// `None` if nothing finished then (Figure 4's per-second series).
    pub fn mean_rt_in_second(&self, second: u64) -> Option<f64> {
        let row = self.seconds.get(second as usize)?;
        (row[RT_N] != 0.0).then(|| row[RT_MS_SUM] / row[RT_N])
    }

    /// Returns the failed-request spans per functional group (Figure 2).
    pub fn gaps(&self) -> &[(FunctionalGroup, SimTime, SimTime)] {
        &self.gaps
    }

    /// Returns true if `group` had any eventually-failed request whose
    /// processing overlapped `[t1, t2]` (a Figure 2 gap).
    pub fn group_unavailable_during(
        &self,
        group: FunctionalGroup,
        t1: SimTime,
        t2: SimTime,
    ) -> bool {
        self.gaps
            .iter()
            .any(|(g, s, e)| *g == group && *s <= t2 && *e >= t1)
    }
}

/// Taw accounting as a telemetry fold: [`TelemetryEvent::ClientOp`] and
/// [`TelemetryEvent::ActionClosed`] drive the same buffering and
/// retroactive attribution as the direct method calls.
impl TelemetrySink for TawTracker {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::ClientOp {
                action,
                group,
                started_at,
                finished_at,
                ok,
            } => {
                let group =
                    FunctionalGroup::from_code(group).unwrap_or(FunctionalGroup::BrowseView);
                self.record_op(ActionId(action), group, started_at, finished_at, ok);
            }
            TelemetryEvent::ActionClosed { action } => self.close_action(ActionId(action)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn all_ok_action_counts_good() {
        let mut taw = TawTracker::new();
        let a = ActionId(1);
        taw.record_op(a, FunctionalGroup::BrowseView, t(1), t(2), true);
        taw.record_op(a, FunctionalGroup::BrowseView, t(3), t(4), true);
        taw.close_action(a);
        let s = taw.summary();
        assert_eq!(s.good_ops, 2);
        assert_eq!(s.bad_ops, 0);
        assert_eq!(s.good_actions, 1);
        assert_eq!(taw.good_in(0, 10), 2.0);
    }

    #[test]
    fn one_failure_retroactively_fails_the_action() {
        let mut taw = TawTracker::new();
        let a = ActionId(1);
        taw.record_op(a, FunctionalGroup::BidBuySell, t(1), t(2), true);
        taw.record_op(a, FunctionalGroup::BidBuySell, t(3), t(4), true);
        taw.record_op(a, FunctionalGroup::BidBuySell, t(5), t(6), false);
        taw.close_action(a);
        let s = taw.summary();
        assert_eq!(s.good_ops, 0, "earlier successes retroactively fail");
        assert_eq!(s.bad_ops, 3);
        assert_eq!(s.bad_actions, 1);
        // The bad ops land in the seconds they finished in.
        assert_eq!(taw.bad_in(2, 2), 1.0);
        assert_eq!(taw.bad_in(6, 6), 1.0);
    }

    #[test]
    fn actions_are_independent() {
        let mut taw = TawTracker::new();
        taw.record_op(ActionId(1), FunctionalGroup::Search, t(1), t(2), true);
        taw.record_op(ActionId(2), FunctionalGroup::Search, t(1), t(2), false);
        taw.close_action(ActionId(1));
        taw.close_action(ActionId(2));
        let s = taw.summary();
        assert_eq!(s.good_actions, 1);
        assert_eq!(s.bad_actions, 1);
    }

    #[test]
    fn close_all_flushes_open_actions() {
        let mut taw = TawTracker::new();
        taw.record_op(ActionId(1), FunctionalGroup::Search, t(1), t(2), true);
        taw.close_all();
        assert_eq!(taw.summary().good_actions, 1);
        // Closing again is a no-op.
        taw.close_action(ActionId(1));
        assert_eq!(taw.summary().good_actions, 1);
    }

    #[test]
    fn close_all_attributes_in_ascending_action_id_order() {
        // Insert in a scrambled order; bulk close must attribute the
        // failing actions' gap spans in ascending id order regardless.
        let mut taw = TawTracker::new();
        for id in [7u64, 2, 9, 4] {
            taw.record_op(
                ActionId(id),
                FunctionalGroup::Search,
                t(id),
                t(id + 1),
                false,
            );
        }
        taw.close_all();
        let gap_starts: Vec<u64> = taw
            .gaps()
            .iter()
            .map(|(_, s, _)| s.second_index())
            .collect();
        assert_eq!(gap_starts, vec![2, 4, 7, 9], "deterministic close order");
    }

    #[test]
    fn response_time_tracking_and_8s_threshold() {
        let mut taw = TawTracker::new();
        taw.record_op(
            ActionId(1),
            FunctionalGroup::BrowseView,
            t(1),
            t(1) + SimDuration::from_millis(100),
            true,
        );
        taw.record_op(ActionId(1), FunctionalGroup::BrowseView, t(2), t(11), true);
        assert_eq!(taw.over_8s(), 1);
        assert_eq!(taw.mean_rt_in_second(1), Some(100.0));
        assert_eq!(taw.mean_rt_in_second(5), None);
    }

    #[test]
    fn gaps_recorded_only_for_failed_actions() {
        let mut taw = TawTracker::new();
        taw.record_op(ActionId(1), FunctionalGroup::Search, t(1), t(3), false);
        taw.close_action(ActionId(1));
        assert!(taw.group_unavailable_during(FunctionalGroup::Search, t(2), t(2)));
        assert!(!taw.group_unavailable_during(FunctionalGroup::Search, t(4), t(5)));
        assert!(!taw.group_unavailable_during(FunctionalGroup::BidBuySell, t(2), t(2)));
    }

    #[test]
    fn empty_action_close_is_noop() {
        let mut taw = TawTracker::new();
        taw.close_action(ActionId(9));
        assert_eq!(taw.summary().good_actions, 0);
        assert_eq!(taw.summary().bad_actions, 0);
    }
}

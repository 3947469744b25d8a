//! Calibration constants, with the paper's measured values cited inline.
//!
//! The simulation does not try to re-measure JBoss; it *models* the costs
//! the paper measured on 3 GHz Pentium machines (Section 5) and lets the
//! experiments reproduce the relative shapes. Every constant here cites the
//! paper value it encodes, so EXPERIMENTS.md can report paper-vs-measured
//! for each table and figure.

use simcore::SimDuration;

/// Time to initialize JBoss's ~70 services on a process restart.
///
/// Paper: 56% of the 19,083 ms JVM/JBoss restart is service initialization
/// (transaction service 2 s, embedded web server 1.8 s, management 1.2 s,
/// ...). 0.56 × 19,083 ≈ 10,686 ms.
pub(crate) const JVM_SERVICES_INIT: SimDuration = SimDuration::from_millis(10_686);

/// Time to deploy and initialize the application during a JVM restart.
///
/// Paper: the remaining 44% of the 19,083 ms restart ≈ 8,397 ms.
pub(crate) const JVM_APP_DEPLOY: SimDuration = SimDuration::from_millis(8_397);

/// Time for `kill -9` of the JVM process.
///
/// Paper (Table 3): "≈ 0" — forceful process death is instantaneous.
pub(crate) const JVM_CRASH: SimDuration = SimDuration::ZERO;

/// Crash time for restarting the whole application in place.
///
/// Paper (Table 3): 33 ms for "Entire eBid application".
pub(crate) const APP_RESTART_CRASH: SimDuration = SimDuration::from_millis(33);

/// Reinit time for restarting the whole application in place.
///
/// Paper (Table 3): 7,666 ms — less than the sum of the per-component
/// costs because whole-application restart is optimized to avoid
/// restarting each individual EJB.
pub(crate) const APP_RESTART_REINIT: SimDuration = SimDuration::from_millis(7_666);

/// Operating-system reboot time.
///
/// The paper performs node-level reboots over ssh but does not report a
/// number; 90 s is representative for the era's Linux 2.6 server reboot
/// plus JVM start (the value only matters for the recursive policy's last
/// resort).
pub(crate) const OS_REBOOT: SimDuration = SimDuration::from_secs(90);

/// Extra reinit charged per additional member when a recovery group is
/// microrebooted together.
///
/// Paper (Table 3): EntityGroup (5 entity beans) reinitializes in 789 ms
/// while single beans take ~400–530 ms: group recovery amortizes, costing
/// roughly the slowest member plus a per-member increment.
pub(crate) const GROUP_EXTRA_REINIT: SimDuration = SimDuration::from_millis(85);

/// Extra crash time per additional recovery-group member.
///
/// Paper (Table 3): EntityGroup crashes in 36 ms vs 8–15 ms for single
/// EJBs.
pub const GROUP_EXTRA_CRASH: SimDuration = SimDuration::from_millis(6);

/// Jitter applied to reinit costs (spread of the 10-trial averages in
/// Table 3).
pub(crate) const REINIT_JITTER: SimDuration = SimDuration::from_millis(35);

/// Per-call interceptor/container overhead for an inter-component call.
pub(crate) const CALL_OVERHEAD: SimDuration = SimDuration::from_micros(150);

/// CPU cost of one database round trip (row read) from the middle tier.
pub(crate) const DB_READ_COST: SimDuration = SimDuration::from_micros(650);

/// CPU cost of one database write round trip.
pub(crate) const DB_WRITE_COST: SimDuration = SimDuration::from_micros(900);

/// CPU cost of a database scan returning up to a page of rows.
pub(crate) const DB_SCAN_COST: SimDuration = SimDuration::from_micros(1_800);

/// Number of CPU workers per application-server node.
///
/// The paper's middle-tier nodes are 3 GHz Pentiums; 500 clients produce a
/// CPU load average of 0.7 (Section 5.2), which the worker-pool model
/// reproduces with 2 CPUs and ~10 ms of CPU per request.
pub(crate) const NODE_CPUS: usize = 2;

/// Size of the request thread pool per node.
///
/// Deliberately huge: the paper's industry contacts confirmed commercial
/// application servers of the era did **no** admission control (Section
/// 5.3), so overload manifests as unbounded queueing and multi-second
/// response times (Figure 4), not fast 503s. Deadlocked threads still
/// park here without burning CPU; exhaustion — whole-node unavailability —
/// takes correspondingly long.
pub(crate) const NODE_THREADS: usize = 10_000;

/// Queue depth at which congestion degradation saturates.
///
/// Overloaded JVMs of the era degraded super-linearly (GC pressure,
/// context-switch thrash — the paper cites CNN.com's cluster collapsing
/// under a 20x surge): per-request CPU inflates linearly with the queue
/// up to [`CONGESTION_MAX_FACTOR`].
pub(crate) const CONGESTION_QUEUE_SCALE: f64 = 1000.0;

/// Maximum congestion-induced service-time inflation.
///
/// Bounded so that a backed-up node's degraded capacity still exceeds the
/// self-throttled (closed-loop) offered load: collapse is deep but not
/// absorbing — the node claws back once the surge passes, as the paper's
/// testbed did.
pub(crate) const CONGESTION_MAX_FACTOR: f64 = 0.35;

/// Server-side time-to-live for stuck requests (Section 2's request TTL).
pub const REQUEST_TTL: SimDuration = SimDuration::from_secs(30);

/// JVM heap size per node.
///
/// Paper (Section 6.4): 1 GB heap on the 1 GB-RAM middle-tier machines.
pub(crate) const HEAP_CAPACITY: u64 = 1 << 30;

/// Free-heap level below which allocations start failing.
///
/// A JVM under severe memory pressure spends most of its time in GC and
/// throws `OutOfMemoryError` on individual allocations long before dying
/// entirely; the failure probability grows as free memory shrinks.
pub(crate) const HEAP_PRESSURE_BYTES: u64 = 200 << 20;

/// Heap consumed by JBoss itself (services, caches, connection pools).
pub(crate) const SERVER_BASE_BYTES: u64 = 96 << 20;

/// The `Retry-After` interval returned while a component microreboots.
///
/// Paper (Section 6.2): `[Retry-After 2 seconds]`.
pub const RETRY_AFTER: SimDuration = SimDuration::from_secs(2);

/// Optional drain delay between sentinel rebind and microreboot start.
///
/// Paper (Section 6.2): 200 ms lets in-flight requests complete.
pub const DRAIN_DELAY: SimDuration = SimDuration::from_millis(200);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jvm_restart_decomposition_matches_paper() {
        // 56% services + 44% app deploy should reconstruct ~19,083 ms.
        let total = JVM_SERVICES_INIT + JVM_APP_DEPLOY;
        let paper = SimDuration::from_millis(19_083);
        let diff = total.saturating_sub(paper).max(paper.saturating_sub(total));
        assert!(diff < SimDuration::from_millis(10), "off by {diff}");
    }

    #[test]
    fn microreboot_is_an_order_of_magnitude_cheaper_than_restart() {
        // A 500 ms EJB microreboot vs a 19 s JVM restart: the paper's
        // headline factor.
        let urb = SimDuration::from_millis(500);
        let restart = JVM_SERVICES_INIT + JVM_APP_DEPLOY;
        assert!(restart.as_micros() / urb.as_micros() >= 10);
    }
}

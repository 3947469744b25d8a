//! The performance-observability plane's client-side tracker.
//!
//! Fail-slow faults (Section 3's "performance failures") never trip the
//! per-response detectors: every response is individually healthy, just
//! slow. This module closes that gap with a windowed baseline comparison:
//!
//! 1. while the cluster is healthy, successful-operation latencies feed
//!    per-`(node, op)` [`QuantileSketch`]es; at a configured instant the
//!    tracker **freezes** each sketch's p95/p99 as that op's baseline
//!    (and each node's ops/second as its throughput baseline);
//! 2. after the freeze, latencies feed *window* sketches; every closed
//!    window, each op's live p95/p99 is compared against its frozen
//!    baseline scaled by a configured multiplier. A breach must also
//!    clear an absolute-delta floor (2x of a single-digit-millisecond
//!    page is jitter, not drift) and repeat for a configured number of
//!    consecutive windows before it is confirmed as a
//!    [`PerfEvent::Anomaly`], which the pool forwards as both a
//!    `LatencyAnomaly` telemetry event and a
//!    [`FailureKind::LatencyAnomaly`](crate::detect::FailureKind) report
//!    to the recovery manager;
//! 3. once a node under anomaly strings together enough consecutive
//!    in-tolerance windows (latency back within the parity tolerance and
//!    throughput back above the floor), the tracker declares
//!    [`PerfEvent::ParityRestored`] — recovery is only *complete* when
//!    performance parity returns, not merely when errors stop.
//!
//! Anomaly reports carry no component hint: the client cannot see inside
//! the server, so diagnosis relies on the recovery manager's call-path
//! intersection over the slow ops — exactly how error reports without
//! exception text are handled.
//!
//! Windows that overlap a recovery (plus a drain margin) are
//! **masked** — discarded without judgement. The outage and the backlog
//! drain behind it are recovery *cost*, already accounted as downtime;
//! letting them masquerade as fresh performance drift would feed the
//! ladder its own collateral damage as evidence and oscillate: recover →
//! drain spike → "anomaly" → recover harder.
//!
//! Everything here is observation-only over integer microseconds: the
//! tracker draws no randomness and schedules nothing, so enabling it
//! cannot perturb request timing (it adds telemetry events and failure
//! reports, which *do* change recovery behaviour — that is its job).

use std::collections::BTreeMap;

use simcore::{QuantileSketch, SimDuration, SimTime};
use urb_core::OpCode;

/// Performance-plane configuration. All windows and thresholds are
/// deterministic integer comparisons.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PerfConfig {
    /// When the pre-fault baseline freezes. Everything observed before
    /// this instant is baseline; everything after is judged against it.
    pub(crate) freeze_at: SimTime,
    /// Judgement-window length. The hosting simulation ticks the tracker
    /// every maintenance sweep; a window closes once this much simulated
    /// time has passed since the last close.
    pub(crate) window: SimDuration,
    /// Minimum successful ops an `(node, op)` pair needs before the
    /// freeze to earn a baseline (thin traffic yields no verdict).
    pub(crate) min_baseline_ops: u64,
    /// Minimum successful ops in a window before that op is judged.
    pub(crate) min_window_ops: u64,
    /// A relative breach only counts when the live quantile also exceeds
    /// the baseline by at least this many microseconds. Tiny-baseline ops
    /// (a cheap page whose p95 is single-digit milliseconds) double on
    /// ordinary queueing jitter; an absolute floor keeps "2x of almost
    /// nothing" from paging anyone.
    pub(crate) min_delta_us: u64,
    /// Consecutive breaching windows required before an anomaly is
    /// raised. One noisy window is weather; the same op breaching
    /// back-to-back windows is climate.
    pub(crate) confirm_windows: u32,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            freeze_at: SimTime::from_secs(30),
            window: SimDuration::from_secs(5),
            min_baseline_ops: 20,
            min_window_ops: 5,
            min_delta_us: 15_000,
            confirm_windows: 2,
        }
    }
}

/// Live p95 above `baseline_p95 * this / 1000` flags an anomaly.
const P95_MULTIPLIER_PERMILLE: u64 = 2000;
/// Live p99 above `baseline_p99 * this / 1000` flags an anomaly.
const P99_MULTIPLIER_PERMILLE: u64 = 2500;
/// Drain margin added past a recovery's scheduled completion when
/// masking judgement windows.
const MASK_MARGIN: SimDuration = SimDuration::from_secs(2);
/// Parity needs every judged op's p95/p99 within `baseline * this / 1000`
/// — tighter than the anomaly multiplier so a node hovering just under
/// the alarm line is not declared cured.
const PARITY_TOLERANCE_PERMILLE: u64 = 1500;
/// Parity also needs the node's window throughput at or above
/// `baseline_rate * this / 1000`.
const THROUGHPUT_FLOOR_PERMILLE: u128 = 700;
/// Consecutive in-tolerance windows (after an anomaly) that restore
/// parity.
const PARITY_WINDOWS: u32 = 3;

/// Frozen per-op latency baseline (integer microseconds).
#[derive(Clone, Copy, Debug)]
struct Baseline {
    p95: u64,
    p99: u64,
}

/// A node currently under latency anomaly.
#[derive(Clone, Debug)]
struct AnomalyState {
    since: SimTime,
    clean_windows: u32,
    /// Ops that breached during this anomaly, each with its streak of
    /// consecutive windows without a verdict. Parity requires each hot op
    /// to be *affirmatively* judged clean — a window where a hot op is
    /// too thin to judge holds the parity count (silence from the op
    /// that was slow is not evidence of recovery). An op unjudged for
    /// `2 * PARITY_WINDOWS` straight windows is retired: its traffic
    /// moved away, and the throughput floor already guards against
    /// "nothing completes, so nothing is slow".
    hot: BTreeMap<u16, u32>,
}

/// What the tracker observed at a tick, for the pool to translate into
/// telemetry events and failure reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerfEvent {
    /// The baseline froze on a node, covering this many ops.
    BaselineFrozen {
        /// The node.
        node: usize,
        /// How many `(node, op)` baselines were frozen.
        ops: u32,
    },
    /// An op's window quantiles breached the baseline multipliers.
    Anomaly {
        /// The node serving the slow op.
        node: usize,
        /// The slow op.
        op: OpCode,
        /// Worst observed ratio `live/baseline`, in permille (2000 =
        /// twice the baseline).
        ratio_permille: u32,
    },
    /// A node under anomaly strung together enough clean windows.
    ParityRestored {
        /// The recovered node.
        node: usize,
        /// How long the node spent out of parity.
        after: SimDuration,
    },
}

/// The windowed baseline tracker. See the module docs for the protocol.
pub struct PerfTracker {
    config: PerfConfig,
    frozen: bool,
    /// Pre-freeze cumulative sketches per `(node, op)`.
    cumulative: BTreeMap<(usize, u16), QuantileSketch>,
    /// Frozen baselines per `(node, op)`.
    baseline: BTreeMap<(usize, u16), Baseline>,
    /// Post-freeze window sketches per `(node, op)`.
    window: BTreeMap<(usize, u16), QuantileSketch>,
    /// Pre-freeze successful-op counts per node (throughput baseline).
    node_ops_total: BTreeMap<usize, u64>,
    /// In-window successful-op counts per node.
    node_ops_window: BTreeMap<usize, u64>,
    /// Nodes currently out of parity.
    anomaly: BTreeMap<usize, AnomalyState>,
    /// When the current window closes (armed at freeze).
    window_ends: Option<SimTime>,
    /// When the current window opened (for the recovery-mask overlap
    /// test).
    window_opened: Option<SimTime>,
    /// Windows that open before this instant are discarded unjudged: a
    /// recovery was in flight, and the outage (plus the backlog drain
    /// behind it) is recovery cost, not performance drift.
    masked_until: Option<SimTime>,
    /// Consecutive breaching windows per `(node, op)`, for the
    /// confirmation debounce. Held (not reset) across windows where the
    /// op is too thin to judge.
    breach_streak: BTreeMap<(usize, u16), u32>,
}

impl PerfTracker {
    /// Creates a tracker; it starts accumulating baseline immediately.
    pub(crate) fn new(config: PerfConfig) -> Self {
        PerfTracker {
            config,
            frozen: false,
            cumulative: BTreeMap::new(),
            baseline: BTreeMap::new(),
            window: BTreeMap::new(),
            node_ops_total: BTreeMap::new(),
            node_ops_window: BTreeMap::new(),
            anomaly: BTreeMap::new(),
            window_ends: None,
            window_opened: None,
            masked_until: None,
            breach_streak: BTreeMap::new(),
        }
    }

    /// Returns the nodes currently out of parity.
    pub fn anomalous_nodes(&self) -> Vec<usize> {
        self.anomaly.keys().copied().collect()
    }

    /// Masks judgement until `until` plus the configured drain margin: a
    /// recovery is (or was) in flight through that instant, so windows
    /// overlapping it measure the outage and the backlog drain, not the
    /// service's steady state. Masked windows are discarded outright —
    /// they neither raise anomalies nor count toward parity.
    pub(crate) fn mask_recovery(&mut self, until: SimTime) {
        let until = until + MASK_MARGIN;
        self.masked_until = Some(self.masked_until.map_or(until, |m| m.max(until)));
    }

    /// Records one *successful* operation's end-to-end latency.
    pub(crate) fn record(&mut self, node: usize, op: OpCode, latency: SimDuration) {
        let us = latency.as_micros();
        if self.frozen {
            self.window.entry((node, op.0)).or_default().observe(us);
            *self.node_ops_window.entry(node).or_insert(0) += 1;
        } else {
            self.cumulative.entry((node, op.0)).or_default().observe(us);
            *self.node_ops_total.entry(node).or_insert(0) += 1;
        }
    }

    /// Advances the tracker to `now`: freezes the baseline when due,
    /// judges the window when closed. Call once per maintenance sweep.
    pub(crate) fn tick(&mut self, now: SimTime) -> Vec<PerfEvent> {
        let mut out = Vec::new();
        if !self.frozen {
            if now >= self.config.freeze_at {
                self.freeze(&mut out);
                self.window_ends = Some(now + self.config.window);
                self.window_opened = Some(now);
            }
            return out;
        }
        let Some(ends) = self.window_ends else {
            return out;
        };
        if now < ends {
            return out;
        }
        let masked = match (self.window_opened, self.masked_until) {
            (Some(opened), Some(mask)) => opened < mask,
            _ => false,
        };
        if !masked {
            self.judge_window(now, &mut out);
        }
        self.window.clear();
        self.node_ops_window.clear();
        self.window_ends = Some(now + self.config.window);
        self.window_opened = Some(now);
        out
    }

    fn freeze(&mut self, out: &mut Vec<PerfEvent>) {
        let mut per_node: BTreeMap<usize, u32> = BTreeMap::new();
        for (&(node, op), sketch) in &self.cumulative {
            if sketch.count() < self.config.min_baseline_ops {
                continue;
            }
            self.baseline.insert(
                (node, op),
                Baseline {
                    p95: sketch.p95().max(1),
                    p99: sketch.p99().max(1),
                },
            );
            *per_node.entry(node).or_insert(0) += 1;
        }
        self.frozen = true;
        self.cumulative.clear();
        for (node, ops) in per_node {
            out.push(PerfEvent::BaselineFrozen { node, ops });
        }
    }

    /// True when the node's window throughput clears the parity floor:
    /// `window_ops / window >= floor/1000 * total_ops / freeze_at`,
    /// cross-multiplied into overflow-safe integer math.
    fn throughput_ok(&self, node: usize) -> bool {
        let total = *self.node_ops_total.get(&node).unwrap_or(&0);
        if total == 0 {
            return true; // No baseline traffic: nothing to fall short of.
        }
        let window_ops = *self.node_ops_window.get(&node).unwrap_or(&0);
        let freeze_us = self.config.freeze_at.as_micros() as u128;
        let window_us = self.config.window.as_micros() as u128;
        (window_ops as u128) * freeze_us * 1000
            >= THROUGHPUT_FLOOR_PERMILLE * (total as u128) * window_us
    }

    fn judge_window(&mut self, now: SimTime, out: &mut Vec<PerfEvent>) {
        // Per-(node, op) verdicts: was the judged op within the parity
        // tolerance? Ops too thin to judge are absent.
        let mut breached: BTreeMap<usize, Vec<u16>> = BTreeMap::new();
        let mut judged: BTreeMap<(usize, u16), bool> = BTreeMap::new();
        for (&(node, op), sketch) in &self.window {
            if sketch.count() < self.config.min_window_ops {
                continue;
            }
            let Some(b) = self.baseline.get(&(node, op)) else {
                continue;
            };
            let (live95, live99) = (sketch.p95(), sketch.p99());
            let r95 = live95.saturating_mul(1000) / b.p95;
            let r99 = live99.saturating_mul(1000) / b.p99;
            let worst = r95.max(r99);
            let breach = (r95 > P95_MULTIPLIER_PERMILLE
                && live95 >= b.p95 + self.config.min_delta_us)
                || (r99 > P99_MULTIPLIER_PERMILLE && live99 >= b.p99 + self.config.min_delta_us);
            if breach {
                let streak = self.breach_streak.entry((node, op)).or_insert(0);
                *streak += 1;
                if *streak >= self.config.confirm_windows {
                    breached.entry(node).or_default().push(op);
                    out.push(PerfEvent::Anomaly {
                        node,
                        op: OpCode(op),
                        ratio_permille: u32::try_from(worst).unwrap_or(u32::MAX),
                    });
                }
            } else {
                self.breach_streak.remove(&(node, op));
            }
            judged.insert((node, op), worst <= PARITY_TOLERANCE_PERMILLE);
        }
        // Advance/clear per-node anomaly state.
        let nodes: Vec<usize> = self.anomaly.keys().copied().collect();
        for node in nodes {
            if breached.contains_key(&node) {
                if let Some(state) = self.anomaly.get_mut(&node) {
                    state.clean_windows = 0;
                }
                continue;
            }
            let throughput = self.throughput_ok(node);
            let stale_after = 2 * PARITY_WINDOWS;
            let Some(state) = self.anomaly.get_mut(&node) else {
                continue;
            };
            // Hold the parity count while any op that breached went
            // unjudged this window: a degraded op whose traffic thinned
            // out has not demonstrated recovery. An op unjudged for long
            // enough is retired instead of holding parity forever.
            let mut all_hot_judged = true;
            state.hot.retain(|op, streak| {
                if judged.contains_key(&(node, *op)) {
                    *streak = 0;
                    true
                } else {
                    *streak += 1;
                    if *streak >= stale_after {
                        false
                    } else {
                        all_hot_judged = false;
                        true
                    }
                }
            });
            if !all_hot_judged {
                continue;
            }
            let all_within = judged
                .iter()
                .filter(|((n, _), _)| *n == node)
                .all(|(_, within)| *within);
            if all_within && throughput {
                state.clean_windows += 1;
                if state.clean_windows >= PARITY_WINDOWS {
                    out.push(PerfEvent::ParityRestored {
                        node,
                        after: now - state.since,
                    });
                    self.anomaly.remove(&node);
                }
            } else {
                state.clean_windows = 0;
            }
        }
        // Newly breached nodes enter (or extend) the anomaly state.
        for (node, ops) in breached {
            let state = self.anomaly.entry(node).or_insert_with(|| AnomalyState {
                since: now,
                clean_windows: 0,
                hot: BTreeMap::new(),
            });
            for op in ops {
                state.hot.insert(op, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test config with the statistical guards (delta floor, debounce)
    /// neutralized; dedicated tests re-enable them.
    fn cfg() -> PerfConfig {
        PerfConfig {
            freeze_at: SimTime::from_secs(10),
            window: SimDuration::from_secs(5),
            min_baseline_ops: 10,
            min_window_ops: 5,
            min_delta_us: 0,
            confirm_windows: 1,
        }
    }

    fn fill(t: &mut PerfTracker, node: usize, op: u16, n: usize, us: u64) {
        for _ in 0..n {
            t.record(node, OpCode(op), SimDuration::from_micros(us));
        }
    }

    #[test]
    fn baseline_freezes_once_and_only_for_dense_ops() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 50, 10_000);
        fill(&mut t, 0, 2, 3, 10_000); // Too thin for a baseline.
        let ev = t.tick(SimTime::from_secs(10));
        assert_eq!(ev, vec![PerfEvent::BaselineFrozen { node: 0, ops: 1 }]);
        // A second tick before the window closes is silent.
        assert!(t.tick(SimTime::from_secs(11)).is_empty());
    }

    #[test]
    fn nothing_happens_before_the_freeze_instant() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 100, 10_000);
        assert!(t.tick(SimTime::from_secs(9)).is_empty());
    }

    #[test]
    fn slow_window_raises_an_anomaly_with_the_ratio() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 50, 10_000);
        t.tick(SimTime::from_secs(10));
        // 4x the baseline, past the 2x multiplier.
        fill(&mut t, 0, 1, 20, 40_000);
        let ev = t.tick(SimTime::from_secs(15));
        assert_eq!(ev.len(), 1);
        match ev[0] {
            PerfEvent::Anomaly {
                node,
                op,
                ratio_permille,
            } => {
                assert_eq!(node, 0);
                assert_eq!(op, OpCode(1));
                // The sketch's <=6.25% relative error bounds the ratio
                // loosely around 4000 permille.
                assert!(
                    (3500..=4600).contains(&ratio_permille),
                    "ratio {ratio_permille}"
                );
            }
            other => panic!("expected anomaly, got {other:?}"),
        }
        assert_eq!(t.anomalous_nodes(), vec![0]);
    }

    #[test]
    fn healthy_windows_raise_nothing() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 50, 10_000);
        t.tick(SimTime::from_secs(10));
        fill(&mut t, 0, 1, 20, 11_000);
        assert!(t.tick(SimTime::from_secs(15)).is_empty());
        assert!(t.anomalous_nodes().is_empty());
    }

    #[test]
    fn thin_windows_yield_no_verdict() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 50, 10_000);
        t.tick(SimTime::from_secs(10));
        fill(&mut t, 0, 1, 2, 80_000); // Below min_window_ops.
        assert!(t.tick(SimTime::from_secs(15)).is_empty());
    }

    #[test]
    fn parity_needs_consecutive_clean_windows() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 100, 10_000);
        t.tick(SimTime::from_secs(10));
        // Window 1: slow -> anomaly at t=15.
        fill(&mut t, 0, 1, 20, 40_000);
        assert_eq!(t.tick(SimTime::from_secs(15)).len(), 1);
        // Windows 2..4: healthy latency and throughput. Baseline rate is
        // 100 ops / 10 s = 10/s; 70% floor over a 5 s window needs >= 35.
        let mut restored = Vec::new();
        for (i, end_s) in [20u64, 25, 30].iter().enumerate() {
            fill(&mut t, 0, 1, 40, 10_000);
            let ev = t.tick(SimTime::from_secs(*end_s));
            if i < 2 {
                assert!(ev.is_empty(), "window {i} must stay silent: {ev:?}");
            } else {
                restored = ev;
            }
        }
        assert_eq!(
            restored,
            vec![PerfEvent::ParityRestored {
                node: 0,
                after: SimDuration::from_secs(15),
            }]
        );
        assert!(t.anomalous_nodes().is_empty());
    }

    #[test]
    fn relapse_resets_the_parity_count() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 100, 10_000);
        t.tick(SimTime::from_secs(10));
        fill(&mut t, 0, 1, 20, 40_000);
        t.tick(SimTime::from_secs(15)); // Anomaly.
        fill(&mut t, 0, 1, 40, 10_000);
        assert!(t.tick(SimTime::from_secs(20)).is_empty()); // Clean 1.
        fill(&mut t, 0, 1, 20, 40_000);
        let relapse = t.tick(SimTime::from_secs(25)); // Relapse.
        assert_eq!(relapse.len(), 1);
        assert!(matches!(relapse[0], PerfEvent::Anomaly { .. }));
        // Three fresh clean windows are needed again.
        fill(&mut t, 0, 1, 40, 10_000);
        assert!(t.tick(SimTime::from_secs(30)).is_empty());
        fill(&mut t, 0, 1, 40, 10_000);
        assert!(t.tick(SimTime::from_secs(35)).is_empty());
        fill(&mut t, 0, 1, 40, 10_000);
        let ev = t.tick(SimTime::from_secs(40));
        assert!(
            matches!(ev[..], [PerfEvent::ParityRestored { node: 0, .. }]),
            "{ev:?}"
        );
    }

    #[test]
    fn thin_hot_op_holds_the_parity_count() {
        let mut t = PerfTracker::new(cfg());
        // Two baselined ops: op 1 hot-path, op 2 the one that degrades.
        fill(&mut t, 0, 1, 100, 10_000);
        fill(&mut t, 0, 2, 50, 10_000);
        t.tick(SimTime::from_secs(10));
        // Op 2 breaches.
        fill(&mut t, 0, 1, 40, 10_000);
        fill(&mut t, 0, 2, 10, 40_000);
        let ev = t.tick(SimTime::from_secs(15));
        assert!(
            matches!(ev[..], [PerfEvent::Anomaly { op: OpCode(2), .. }]),
            "{ev:?}"
        );
        // Op 2's traffic thins out below min_window_ops while op 1 stays
        // clean: parity must NOT restore on op 1's silence about op 2.
        for end_s in [20u64, 25, 30, 35] {
            fill(&mut t, 0, 1, 40, 10_000);
            fill(&mut t, 0, 2, 2, 40_000); // Still slow, but unjudged.
            let ev = t.tick(SimTime::from_secs(end_s));
            assert!(ev.is_empty(), "parity must hold: {ev:?}");
        }
        assert_eq!(t.anomalous_nodes(), vec![0]);
        // Once op 2 is dense *and* clean again, three windows restore it.
        for end_s in [40u64, 45] {
            fill(&mut t, 0, 1, 50, 10_000);
            fill(&mut t, 0, 2, 10, 10_000);
            assert!(t.tick(SimTime::from_secs(end_s)).is_empty());
        }
        fill(&mut t, 0, 1, 50, 10_000);
        fill(&mut t, 0, 2, 10, 10_000);
        let ev = t.tick(SimTime::from_secs(50));
        assert!(
            matches!(ev[..], [PerfEvent::ParityRestored { node: 0, .. }]),
            "{ev:?}"
        );
    }

    #[test]
    fn throughput_collapse_blocks_parity() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 100, 10_000);
        t.tick(SimTime::from_secs(10));
        fill(&mut t, 0, 1, 20, 40_000);
        t.tick(SimTime::from_secs(15)); // Anomaly.
                                        // Latency back in range but only 10 ops per 5 s window against a
                                        // 10/s baseline: 20% of baseline, under the 70% floor.
        for end_s in [20u64, 25, 30, 35] {
            fill(&mut t, 0, 1, 10, 10_000);
            let ev = t.tick(SimTime::from_secs(end_s));
            assert!(ev.is_empty(), "parity must be blocked: {ev:?}");
        }
        assert_eq!(t.anomalous_nodes(), vec![0]);
    }

    #[test]
    fn small_absolute_drift_is_not_an_anomaly() {
        let mut t = PerfTracker::new(PerfConfig {
            min_delta_us: 15_000,
            ..cfg()
        });
        // Baseline p95 ~5 ms: doubling it is still only +5 ms of drift,
        // far under the 15 ms floor.
        fill(&mut t, 0, 1, 50, 5_000);
        t.tick(SimTime::from_secs(10));
        fill(&mut t, 0, 1, 20, 12_000);
        assert!(t.tick(SimTime::from_secs(15)).is_empty());
        // A 40 ms op doubling clears the floor and still fires.
        let mut t2 = PerfTracker::new(PerfConfig {
            min_delta_us: 15_000,
            ..cfg()
        });
        fill(&mut t2, 0, 2, 50, 40_000);
        t2.tick(SimTime::from_secs(10));
        fill(&mut t2, 0, 2, 20, 100_000);
        let ev = t2.tick(SimTime::from_secs(15));
        assert!(matches!(ev[..], [PerfEvent::Anomaly { .. }]), "{ev:?}");
    }

    #[test]
    fn one_noisy_window_does_not_confirm_an_anomaly() {
        let mut t = PerfTracker::new(PerfConfig {
            confirm_windows: 2,
            ..cfg()
        });
        fill(&mut t, 0, 1, 50, 10_000);
        t.tick(SimTime::from_secs(10));
        // One breaching window: streak 1, unconfirmed.
        fill(&mut t, 0, 1, 20, 40_000);
        assert!(t.tick(SimTime::from_secs(15)).is_empty());
        // A clean window resets the streak...
        fill(&mut t, 0, 1, 20, 10_000);
        assert!(t.tick(SimTime::from_secs(20)).is_empty());
        fill(&mut t, 0, 1, 20, 40_000);
        assert!(t.tick(SimTime::from_secs(25)).is_empty());
        // ...but back-to-back breaches confirm.
        fill(&mut t, 0, 1, 20, 40_000);
        let ev = t.tick(SimTime::from_secs(30));
        assert!(matches!(ev[..], [PerfEvent::Anomaly { .. }]), "{ev:?}");
    }

    #[test]
    fn recovery_masked_windows_are_discarded() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 100, 10_000);
        t.tick(SimTime::from_secs(10));
        // A recovery runs inside this window: its latencies are outage
        // cost, not drift, however slow they look.
        t.mask_recovery(SimTime::from_secs(13));
        fill(&mut t, 0, 1, 20, 80_000);
        assert!(t.tick(SimTime::from_secs(15)).is_empty());
        // The mask has passed; a genuinely slow window still fires.
        fill(&mut t, 0, 1, 20, 80_000);
        let ev = t.tick(SimTime::from_secs(20));
        assert!(matches!(ev[..], [PerfEvent::Anomaly { .. }]), "{ev:?}");
        // And masking mid-anomaly neither clears nor relapses the state.
        t.mask_recovery(SimTime::from_secs(22));
        fill(&mut t, 0, 1, 40, 10_000);
        assert!(t.tick(SimTime::from_secs(25)).is_empty());
        assert_eq!(t.anomalous_nodes(), vec![0]);
    }

    #[test]
    fn nodes_are_tracked_independently() {
        let mut t = PerfTracker::new(cfg());
        fill(&mut t, 0, 1, 50, 10_000);
        fill(&mut t, 1, 1, 50, 10_000);
        let frozen = t.tick(SimTime::from_secs(10));
        assert_eq!(frozen.len(), 2);
        fill(&mut t, 0, 1, 20, 40_000); // Node 0 slow.
        fill(&mut t, 1, 1, 20, 10_000); // Node 1 healthy.
        let ev = t.tick(SimTime::from_secs(15));
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], PerfEvent::Anomaly { node: 0, .. }));
        assert_eq!(t.anomalous_nodes(), vec![0]);
    }
}

//! The report window every policy diagnoses from, and its scoring.
//!
//! One sliding window of failure reports per node, with the hygiene every
//! policy needs (session-loss skip, aftershock suppression, pruning), and
//! one scoring pass over it: a static URL-prefix → component-path map
//! attributes each failed request to the components on its path.

use std::collections::BTreeMap;

use simcore::{SimDuration, SimTime};
use urb_core::OpCode;
use workload::detect::{FailureKind, FailureReport};

use crate::policy::{PathOf, PolicyCtx};

/// Aftershock suppression: reports arriving within this long of a
/// completed recovery are ignored — they are the recovery's own damage
/// (killed requests, 503s during the reboot), not evidence that the fault
/// persists.
pub(crate) const SETTLE: SimDuration = SimDuration::from_secs(3);

/// Evidence weight of one latency-anomaly report in the diagnosis score.
///
/// An anomaly report is emitted once per judgement window and stands for
/// every slow request in it, whereas an error report stands for a single
/// failed request — without the heavier weight, a fail-slow fault feeding
/// one report per window would take most of a score-window to cross the
/// decision threshold, and re-offending after a microreboot would never
/// accumulate enough evidence to climb the ladder. Classic (error-driven)
/// runs never emit these reports, so their decisions are unchanged.
const ANOMALY_REPORT_WEIGHT: f64 = 3.0;

#[derive(Debug)]
struct Report {
    at: SimTime,
    /// The failed op, for path scoring — `None` for network failures.
    op: Option<OpCode>,
    /// The component the error page named, if any.
    hint: Option<&'static str>,
    weight: f64,
}

/// One node's failure evidence.
#[derive(Debug, Default)]
pub(crate) struct Evidence {
    recent: Vec<Report>,
    /// When the oldest surviving report arrived.
    pub(crate) first_report_at: Option<SimTime>,
    /// When the last acknowledged recovery completed.
    pub(crate) last_recovery_end: Option<SimTime>,
}

impl Evidence {
    /// Ingests one report; false if hygiene discarded it.
    pub(crate) fn observe(&mut self, r: &FailureReport) -> bool {
        // Session loss (a login prompt served to a logged-in user) means
        // state was lost — by a restart here, a failover away from a
        // recovering node, or an eviction. No reboot cures it, and acting
        // on it cascades: the recovery would destroy yet more sessions.
        if r.kind == FailureKind::SessionLoss {
            return false;
        }
        if self
            .last_recovery_end
            .is_some_and(|end| r.at <= end + SETTLE)
        {
            return false;
        }
        self.first_report_at.get_or_insert(r.at);
        let network = r.kind == FailureKind::Network;
        self.recent.push(Report {
            at: r.at,
            op: (!network).then_some(r.op),
            hint: if network { None } else { r.hint },
            weight: if r.kind == FailureKind::LatencyAnomaly {
                ANOMALY_REPORT_WEIGHT
            } else {
                1.0
            },
        });
        true
    }

    /// True when no report survives.
    pub(crate) fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// Forgets reports older than `window`.
    pub(crate) fn prune(&mut self, now: SimTime, window: SimDuration) {
        self.recent.retain(|r| now - r.at <= window);
        self.first_report_at = self.recent.first().map(|r| r.at);
    }

    /// Drops all evidence (a decision consumed it).
    pub(crate) fn clear(&mut self) {
        self.recent.clear();
        self.first_report_at = None;
    }

    /// An action completed at `now`: its evidence is spent, and what
    /// arrives inside the settle window is its own aftershock.
    pub(crate) fn recovery_finished(&mut self, now: SimTime) {
        self.last_recovery_end = Some(now);
        self.clear();
    }

    /// Drops the evidence that implicated `components` — each report whose
    /// URL path traverses (or whose hint names) one of them — so what
    /// remains can implicate a *different* concurrent fault instead of
    /// re-diagnosing the one already being cured.
    pub(crate) fn consume(&mut self, components: &[&str], path_of: PathOf) {
        self.recent.retain(|r| {
            if r.hint.is_some_and(|h| components.contains(&h)) {
                return false;
            }
            match r.op {
                None => true,
                Some(op) => !(path_of)(op).iter().any(|c| components.contains(c)),
            }
        });
        self.first_report_at = self.recent.first().map(|r| r.at);
    }

    /// The most frequently hinted non-web component, ties toward the
    /// lexically first.
    pub(crate) fn top_hint(&self, web: &'static str) -> Option<&'static str> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for h in self.recent.iter().filter_map(|r| r.hint) {
            if h != web {
                *counts.entry(h).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
            .map(|(c, _)| c)
    }

    /// Scores components along the failed URLs' static call paths. The
    /// web component is on every path, so hits on it carry little
    /// information. With `weigh_hints`, an error page naming the failing
    /// bean counts for far more than path membership. Allocates nothing
    /// over an empty window.
    pub(crate) fn score(&self, ctx: &PolicyCtx, weigh_hints: bool) -> Scored {
        let mut scored = Scored::default();
        for r in &self.recent {
            let Some(op) = r.op else {
                scored.network += 1;
                continue;
            };
            scored.other += 1;
            if !scored.failing_ops.contains(&op) {
                scored.failing_ops.push(op);
            }
            for comp in (ctx.path_of)(op) {
                let w = if *comp == ctx.web { 0.2 } else { 1.0 };
                *scored.scores.entry(comp).or_insert(0.0) += w * r.weight;
            }
            if let (true, Some(h)) = (weigh_hints, r.hint) {
                *scored.scores.entry(h).or_insert(0.0) += 2.0;
            }
        }
        scored
    }
}

/// One scoring pass over a node's [`Evidence`].
#[derive(Debug, Default)]
pub(crate) struct Scored {
    scores: BTreeMap<&'static str, f64>,
    failing_ops: Vec<OpCode>,
    network: u64,
    other: u64,
}

impl Scored {
    /// Whether the evidence implicates *some single component* strongly
    /// enough (or shows enough connection-level failures); summing over a
    /// whole path would let one failed request trip the threshold.
    pub(crate) fn enough(&self, threshold: f64) -> bool {
        let max_score = self.scores.values().copied().fold(0.0, f64::max);
        max_score >= threshold || self.network as f64 >= threshold
    }

    /// Connection-level failures dominate: the process (or node) is gone,
    /// and component recovery is pointless.
    pub(crate) fn process_is_dead(&self) -> bool {
        self.network > self.other
    }

    /// Picks the most suspicious non-web component.
    ///
    /// Strategy (static analysis over the URL → path map):
    /// 1. Components common to *every* failing URL's path are the prime
    ///    suspects — the fault must lie where all failing flows meet.
    /// 2. Ties break toward the component that appears on the *fewest*
    ///    paths overall: a component shared by many URLs (IdentityManager,
    ///    User, ...) would be making other URLs fail too, and they are not
    ///    failing.
    /// 3. If the intersection is empty (noisy evidence), fall back to the
    ///    rarity-weighted score maximum.
    pub(crate) fn suspect(&self, ctx: &PolicyCtx) -> Option<&'static str> {
        let (path_of, web) = (ctx.path_of, ctx.web);
        // How many distinct URLs each component serves (IDF weight).
        let paths_containing = |comp: &str| -> usize {
            (0u16..64)
                .map(OpCode)
                .filter(|op| (path_of)(*op).contains(&comp))
                .count()
        };
        if let Some((first, rest)) = self.failing_ops.split_first() {
            let mut common: Vec<&'static str> = (path_of)(*first)
                .iter()
                .copied()
                .filter(|c| *c != web)
                .collect();
            for op in rest {
                let path = (path_of)(*op);
                common.retain(|c| path.contains(c));
            }
            common.sort_by_key(|c| (paths_containing(c), *c));
            if let Some(best) = common.first() {
                return Some(best);
            }
        }
        // Fallback: rarity-weighted maximum score.
        let mut best: Option<(&'static str, f64)> = None;
        for (c, s) in &self.scores {
            if *c == web {
                continue;
            }
            let weighted = *s / paths_containing(c).max(1) as f64;
            let better = match best {
                Some((bc, bs)) => weighted > bs || (weighted == bs && *c < bc),
                None => true,
            };
            if better {
                best = Some((c, weighted));
            }
        }
        best.map(|(c, _)| c)
    }
}

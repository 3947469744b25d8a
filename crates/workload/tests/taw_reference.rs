//! The Taw tracker's dense per-second rows answer exactly what string-keyed
//! `(second, key)` cells answer: a reference tracker built on that cell
//! arithmetic, with its open actions in an ordered map, is fed the same
//! random operations and must agree on every query the experiments and the
//! benchmark make, whatever the layout of the action ids.

use std::collections::BTreeMap;

use simcore::{SimDuration, SimRng, SimTime};
use workload::taw::{ActionId, EIGHT_SECONDS};
use workload::{FunctionalGroup, TawTracker};

type Op = (FunctionalGroup, SimTime, SimTime, bool);

/// Per-second counters keyed by name: each cell sums what was added to it,
/// in the order it was added.
#[derive(Default)]
struct Cells(BTreeMap<(u64, &'static str), f64>);

impl Cells {
    fn add(&mut self, at: SimTime, key: &'static str, amount: f64) {
        *self.0.entry((at.second_index(), key)).or_insert(0.0) += amount;
    }

    fn incr(&mut self, at: SimTime, key: &'static str) {
        self.add(at, key, 1.0);
    }

    fn get(&self, second: u64, key: &'static str) -> f64 {
        self.0.get(&(second, key)).copied().unwrap_or(0.0)
    }

    fn sum_range(&self, key: &'static str, from: u64, to: u64) -> f64 {
        (from..=to).map(|s| self.get(s, key)).sum()
    }
}

/// Section 4's accounting on per-second `(second, key)` cells.
#[derive(Default)]
struct Reference {
    series: Cells,
    open: BTreeMap<u64, Vec<Op>>,
    counts: [u64; 4],
    gaps: Vec<(FunctionalGroup, SimTime, SimTime)>,
    over_8s: u64,
}

impl Reference {
    fn record_op(&mut self, action: u64, op: Op) {
        let (_, started_at, finished_at, _) = op;
        let rt = finished_at - started_at;
        self.series
            .add(finished_at, "rt_ms_sum", rt.as_millis_f64());
        self.series.incr(finished_at, "rt_n");
        if rt > EIGHT_SECONDS {
            self.over_8s += 1;
        }
        self.open.entry(action).or_default().push(op);
    }

    fn close_action(&mut self, action: u64) {
        let Some(ops) = self.open.remove(&action) else {
            return;
        };
        let good = ops.iter().all(|op| op.3);
        let [good_ops, bad_ops, good_actions, bad_actions] = &mut self.counts;
        *if good { good_actions } else { bad_actions } += 1;
        for (group, started_at, finished_at, _) in ops {
            if good {
                *good_ops += 1;
                self.series.incr(finished_at, "good");
            } else {
                *bad_ops += 1;
                self.series.incr(finished_at, "bad");
                self.gaps.push((group, started_at, finished_at));
            }
        }
    }

    fn close_all(&mut self) {
        let ids: Vec<u64> = self.open.keys().copied().collect();
        for id in ids {
            self.close_action(id);
        }
    }

    fn mean_rt_in_second(&self, second: u64) -> Option<f64> {
        let n = self.series.get(second, "rt_n");
        (n != 0.0).then(|| self.series.get(second, "rt_ms_sum") / n)
    }
}

fn assert_agree(taw: &TawTracker, reference: &Reference, horizon: u64, context: &str) {
    let s = taw.summary();
    assert_eq!(
        [s.good_ops, s.bad_ops, s.good_actions, s.bad_actions],
        reference.counts,
        "{context}: summary"
    );
    assert_eq!(taw.gaps(), reference.gaps, "{context}: gaps");
    assert_eq!(taw.over_8s(), reference.over_8s, "{context}: over 8 s");
    // Past the last row too: nothing finished there.
    for second in 0..horizon + 3 {
        assert_eq!(
            taw.mean_rt_in_second(second),
            reference.mean_rt_in_second(second),
            "{context}: mean rt in second {second}"
        );
        for to in [second, second + 7, horizon + 40] {
            let good = reference.series.sum_range("good", second, to);
            let bad = reference.series.sum_range("bad", second, to);
            assert_eq!(
                taw.good_in(second, to),
                good,
                "{context}: good {second}..={to}"
            );
            assert_eq!(
                taw.bad_in(second, to),
                bad,
                "{context}: bad {second}..={to}"
            );
        }
    }
}

#[test]
fn dense_rows_agree_with_the_string_keyed_series() {
    const HORIZON: u64 = 40;
    let groups = [
        FunctionalGroup::BrowseView,
        FunctionalGroup::Search,
        FunctionalGroup::BidBuySell,
    ];
    for case in 0..64 {
        let mut rng = SimRng::seed_from(0x7a30 + case);
        let mut taw = TawTracker::new();
        let mut reference = Reference::default();
        for step in 0..200 {
            // A few action ids, so actions gather several operations and
            // closes hit open, closed and never-opened (empty) actions:
            // mostly dense ones in 0..36, some sparse and far apart, near
            // 1 << 40 and at the top of the id space.
            let action = match rng.uniform_u64(8) {
                0 => (1 << 40) + rng.uniform_u64(4) * 0x1_0000_0001,
                1 => u64::MAX - 16 + rng.uniform_u64(17),
                _ => rng.uniform_u64(12) + 12 * (step / 70),
            };
            match rng.uniform_u64(16) {
                0..=9 => {
                    // Finish seconds arrive out of order; some responses
                    // take longer than eight seconds, some fail.
                    let started = SimTime::from_micros(rng.uniform_u64(HORIZON * 1_000_000));
                    let rt = match rng.uniform_u64(8) {
                        0 => SimDuration::from_millis(8_000 + rng.uniform_u64(4_000)),
                        1 => EIGHT_SECONDS,
                        _ => SimDuration::from_micros(rng.uniform_u64(900_000)),
                    };
                    let finished = (started + rt).min(SimTime::from_secs(HORIZON));
                    let group = groups[rng.uniform_usize(groups.len())];
                    let ok = !rng.chance(0.15);
                    taw.record_op(ActionId(action), group, started, finished, ok);
                    reference.record_op(action, (group, started, finished, ok));
                }
                10..=14 => {
                    taw.close_action(ActionId(action));
                    reference.close_action(action);
                }
                _ => {
                    taw.close_all();
                    reference.close_all();
                }
            }
            if step % 20 == 19 {
                assert_agree(
                    &taw,
                    &reference,
                    HORIZON,
                    &format!("case {case} step {step}"),
                );
            }
        }
        taw.close_all();
        reference.close_all();
        assert_agree(&taw, &reference, HORIZON, &format!("case {case} closed"));
        assert!(reference.open.is_empty());
    }
}

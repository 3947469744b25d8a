//! The event queue against a reference outside it. Any schedule drives
//! `EventQueue` — its one-entry stage, near heap, far heap and FIFO lane —
//! and a `BTreeMap` keyed by `(at, seq)` through the same firings, clock
//! and counters, whichever structure each entry waits in.

use std::collections::BTreeMap;

use microreboot::simcore::{EventId, EventPayload, EventQueue, SimDuration, SimRng, SimTime};

/// The queue's near-heap horizon (private to `simcore::event`): deltas are
/// drawn below it, exactly at it and above it.
const NEAR: SimDuration = SimDuration::from_millis(100);

/// A constant delay from the clock, the class the FIFO lane is for (as the
/// cluster's client timeout), short enough to fire within a case.
const LANE_DELAY: SimDuration = SimDuration::from_millis(150);

/// Which scheduling call an event goes through.
#[derive(Clone, Copy, Debug)]
enum Path {
    At,
    Fifo,
}

/// An event that logs its id and may schedule one follow-up.
#[derive(Clone, Copy, Debug)]
struct Ev {
    id: u64,
    follow_up: Option<(SimDuration, Path)>,
}

impl Ev {
    /// The follow-up the event schedules when it fires: its delay from the
    /// firing time, its path, and the event itself.
    fn child(self) -> Option<(SimDuration, Path, Ev)> {
        let (delay, path) = self.follow_up?;
        let child = Ev {
            id: self.id + 1_000_000,
            follow_up: None,
        };
        Some((delay, path, child))
    }
}

/// What the real queue's events did: the ids that fired, in order, and
/// the handle of every event scheduled, by the test or by a handler, in
/// schedule order.
#[derive(Default)]
struct World {
    fired: Vec<u64>,
    handles: Vec<EventId>,
}

type Queue = EventQueue<World, Ev>;

fn schedule(q: &mut Queue, at: SimTime, path: Path, ev: Ev) -> EventId {
    match path {
        Path::At => q.schedule_event_at(at, "at", ev),
        Path::Fifo => q.schedule_event_fifo(at, "fifo", ev),
    }
}

impl EventPayload<World> for Ev {
    fn fire(self, w: &mut World, q: &mut Queue) {
        w.fired.push(self.id);
        if let Some((delay, path, child)) = self.child() {
            let handle = schedule(q, q.now() + delay, path, child);
            w.handles.push(handle);
        }
    }
}

/// The reference: pending events in one `BTreeMap` keyed by `(at, seq)`,
/// with its own clock, sequence counter and clamping of past times.
#[derive(Default)]
struct Model {
    now: SimTime,
    next_seq: u64,
    pending: BTreeMap<(SimTime, u64), Ev>,
    /// The key of every event scheduled, in schedule order.
    keys: Vec<(SimTime, u64)>,
    fired: Vec<u64>,
    /// The most events ever pending at once.
    high_water: usize,
}

impl Model {
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let key = (at.max(self.now), self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, ev);
        self.keys.push(key);
        self.high_water = self.high_water.max(self.pending.len());
    }

    fn cancel(&mut self, nth: usize) -> bool {
        self.pending.remove(&self.keys[nth]).is_some()
    }

    /// Fires the earliest pending event if it is due by `deadline`.
    fn fire_due(&mut self, deadline: SimTime) -> bool {
        let Some(first) = self.pending.first_entry() else {
            return false;
        };
        if first.key().0 > deadline {
            return false;
        }
        let ((at, _), ev) = first.remove_entry();
        self.now = at;
        self.fired.push(ev.id);
        if let Some((delay, _, child)) = ev.child() {
            self.schedule(at + delay, child);
        }
        true
    }

    fn run_until(&mut self, deadline: SimTime) {
        while self.fire_due(deadline) {}
        self.now = self.now.max(deadline);
    }
}

/// The queue and the reference, fed the same schedule.
#[derive(Default)]
struct Pair {
    queue: Queue,
    world: World,
    model: Model,
    next_id: u64,
}

impl Pair {
    fn schedule(&mut self, at: SimTime, path: Path, follow_up: Option<(SimDuration, Path)>) {
        let ev = Ev {
            id: self.next_id,
            follow_up,
        };
        self.next_id += 1;
        let handle = schedule(&mut self.queue, at, path, ev);
        self.world.handles.push(handle);
        self.model.schedule(at, ev);
    }

    fn cancel(&mut self, nth: usize) {
        let cancelled = self.queue.cancel(self.world.handles[nth]);
        assert_eq!(cancelled, self.model.cancel(nth), "cancel of event {nth}");
    }

    fn step(&mut self) {
        let fired = self.queue.step(&mut self.world).is_some();
        assert_eq!(fired, self.model.fire_due(SimTime::from_micros(u64::MAX)));
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.queue.run_until(&mut self.world, deadline);
        self.model.run_until(deadline);
    }

    fn assert_equal(&self, context: &str) {
        let (q, model) = (&self.queue, &self.model);
        assert_eq!(self.world.fired, model.fired, "{context}: firing order");
        assert_eq!(q.now(), model.now, "{context}: clock");
        assert_eq!(
            q.events_fired(),
            model.fired.len() as u64,
            "{context}: fired"
        );
        assert_eq!(q.pending(), model.pending.len(), "{context}: pending");
        assert_eq!(
            q.arena_capacity(),
            model.high_water,
            "{context}: arena high-water mark"
        );
        assert_eq!(self.world.handles.len(), model.keys.len(), "{context}");
    }
}

/// A delay on a 5 ms grid, so that entries in different structures often
/// tie in `at`: zero, below the near horizon, exactly at it, or beyond it
/// (up to a second).
fn delta(rng: &mut SimRng) -> SimDuration {
    let grid = |steps| SimDuration::from_millis(5 * steps);
    match rng.uniform_u64(4) {
        0 => SimDuration::ZERO,
        1 => grid(1 + rng.uniform_u64(19)),
        2 => NEAR,
        _ => NEAR + grid(1 + rng.uniform_u64(180)),
    }
}

fn path(rng: &mut SimRng) -> Path {
    if rng.chance(0.5) {
        Path::At
    } else {
        Path::Fifo
    }
}

#[test]
fn the_queue_fires_any_schedule_as_the_reference_does() {
    for case in 0..64 {
        let mut rng = SimRng::seed_from(0xe7e0 + case);
        let mut pair = Pair::default();
        for step in 0..300 {
            let now = pair.queue.now();
            match rng.uniform_u64(12) {
                // `schedule_event_at` by every delta; now and then in the
                // past (clamped to now) or with a follow-up.
                0..=2 => {
                    let at = if rng.chance(0.1) {
                        SimTime::from_micros(rng.uniform_u64(now.as_micros() + 1))
                    } else {
                        now + delta(&mut rng)
                    };
                    let follow_up = rng.chance(0.3).then(|| match path(&mut rng) {
                        Path::At => (delta(&mut rng), Path::At),
                        Path::Fifo => (LANE_DELAY, Path::Fifo),
                    });
                    pair.schedule(at, Path::At, follow_up);
                }
                // The lane's class: a constant delay from now.
                3 => pair.schedule(now + LANE_DELAY, Path::Fifo, None),
                // A FIFO call with any deadline: one earlier than the
                // lane's last entry falls back to a heap.
                4 => pair.schedule(now + delta(&mut rng), Path::Fifo, None),
                // Cancelled while still staged.
                5 => {
                    pair.schedule(now + delta(&mut rng), Path::At, None);
                    pair.cancel(pair.world.handles.len() - 1);
                }
                // Anything ever scheduled: pending in either heap or the
                // lane, fired, or cancelled already.
                6 | 7 if !pair.world.handles.is_empty() => {
                    let nth = rng.uniform_usize(pair.world.handles.len());
                    pair.cancel(nth);
                }
                8 => pair.run_until(now + delta(&mut rng)),
                _ => pair.step(),
            }
            pair.assert_equal(&format!("case {case} step {step}"));
        }
        pair.run_until(SimTime::from_micros(u64::MAX));
        pair.assert_equal(&format!("case {case} drained"));
        assert_eq!(pair.queue.pending(), 0);
    }
}

#[test]
fn ties_across_the_three_structures_break_by_schedule_order() {
    let mut pair = Pair::default();
    let at = |ms| SimTime::from_millis(ms);
    // Far when scheduled at 0, then near, lane and a FIFO fallback at the
    // same instant, and one more far entry behind them.
    pair.schedule(at(150), Path::At, None);
    pair.schedule(at(200), Path::At, None);
    pair.run_until(at(100));
    pair.schedule(at(150), Path::At, None);
    pair.schedule(at(150), Path::Fifo, None);
    pair.schedule(at(160), Path::Fifo, None);
    pair.schedule(at(150), Path::Fifo, None);
    pair.assert_equal("scheduled");
    pair.run_until(at(150));
    pair.assert_equal("the tie at 150 ms");
    assert_eq!(pair.world.fired, vec![0, 2, 3, 5]);
    pair.run_until(at(200));
    assert_eq!(pair.world.fired, vec![0, 2, 3, 5, 4, 1]);
}

#[test]
fn cancelled_heads_are_skipped_by_run_until_and_by_step() {
    let mut pair = Pair::default();
    let at = |ms| SimTime::from_millis(ms);
    pair.schedule(at(10), Path::Fifo, None);
    pair.schedule(at(20), Path::Fifo, None);
    pair.schedule(at(30), Path::Fifo, None);
    pair.schedule(at(20), Path::At, None);
    // Out of order for the lane: falls back to a heap and still fires first.
    pair.schedule(at(5), Path::Fifo, None);
    pair.schedule(at(500), Path::At, None);
    pair.cancel(0);
    pair.run_until(at(15));
    pair.assert_equal("cancelled lane head, deadline before the next entry");
    assert_eq!(pair.world.fired, vec![4]);
    assert_eq!(pair.queue.pending(), 4);
    // The tie at 20 ms breaks by schedule order: lane entry 1, heap entry 3.
    pair.cancel(2);
    pair.cancel(5);
    pair.step();
    pair.step();
    pair.assert_equal("tie between lane and near heap");
    assert_eq!(pair.world.fired, vec![4, 1, 3]);
    pair.step();
    pair.assert_equal("only cancelled lane and far entries left");
    assert_eq!(pair.queue.pending(), 0);
    assert_eq!(pair.queue.events_fired(), 3);
}

//! The FIFO lane is invisible except for speed: any schedule drives a
//! queue that uses `schedule_event_fifo` and a queue that uses only
//! `schedule_event_at` through the same firings, clocks and counters.

use simcore::{EventId, EventPayload, EventQueue, SimDuration, SimRng, SimTime};

/// What fired, in order; `lane` says whether this world's queue may use
/// the FIFO lane (the reference world never does).
struct World {
    lane: bool,
    fired: Vec<u64>,
}

/// An event that logs its id and may schedule one follow-up.
struct Ev {
    id: u64,
    follow_up: Option<(SimDuration, bool)>,
}

type Queue = EventQueue<World, Ev>;

fn schedule(q: &mut Queue, lane: bool, at: SimTime, fifo: bool, ev: Ev) -> EventId {
    if lane && fifo {
        q.schedule_event_fifo(at, "fifo", ev)
    } else {
        q.schedule_event_at(at, "heap", ev)
    }
}

impl EventPayload<World> for Ev {
    fn fire(self, w: &mut World, q: &mut Queue) {
        w.fired.push(self.id);
        if let Some((delay, fifo)) = self.follow_up {
            let ev = Ev {
                id: self.id + 1_000_000,
                follow_up: None,
            };
            schedule(q, w.lane, q.now() + delay, fifo, ev);
        }
    }
}

/// Two queues fed the same schedule; `real` routes FIFO-flagged events
/// through the lane, `reference` routes everything through the heap.
struct Pair {
    real: (Queue, World),
    reference: (Queue, World),
    ids: Vec<(EventId, EventId)>,
    next_id: u64,
}

impl Pair {
    fn new() -> Self {
        let side = |lane| {
            let world = World {
                lane,
                fired: Vec::new(),
            };
            (Queue::new(), world)
        };
        Pair {
            real: side(true),
            reference: side(false),
            ids: Vec::new(),
            next_id: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, fifo: bool, follow_up: Option<(SimDuration, bool)>) {
        let id = self.next_id;
        self.next_id += 1;
        let on = |(q, w): &mut (Queue, World)| schedule(q, w.lane, at, fifo, Ev { id, follow_up });
        let pair = (on(&mut self.real), on(&mut self.reference));
        self.ids.push(pair);
    }

    fn cancel(&mut self, nth: usize) {
        let (a, b) = self.ids[nth];
        assert_eq!(self.real.0.cancel(a), self.reference.0.cancel(b));
    }

    fn step(&mut self) {
        let fired = self.real.0.step(&mut self.real.1);
        let expected = self.reference.0.step(&mut self.reference.1);
        assert_eq!(fired.is_some(), expected.is_some());
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.real.0.run_until(&mut self.real.1, deadline);
        self.reference.0.run_until(&mut self.reference.1, deadline);
    }

    fn assert_equal(&self, context: &str) {
        let ((q, w), (rq, rw)) = (&self.real, &self.reference);
        assert_eq!(w.fired, rw.fired, "{context}: firing order");
        assert_eq!(q.now(), rq.now(), "{context}: clock");
        assert_eq!(q.events_fired(), rq.events_fired(), "{context}: fired");
        assert_eq!(q.pending(), rq.pending(), "{context}: pending");
        assert_eq!(
            q.arena_capacity(),
            rq.arena_capacity(),
            "{context}: arena high-water mark"
        );
    }
}

#[test]
fn lane_and_heap_fire_any_schedule_in_the_same_order() {
    // The constant delay of the monotone class, as the cluster's client
    // timeout uses; short enough that lane entries fire within a case.
    let constant = SimDuration::from_millis(40);
    for case in 0..64 {
        let mut rng = SimRng::seed_from(0x1a9e + case);
        let mut pair = Pair::new();
        for step in 0..300 {
            let now = pair.real.0.now();
            // Small deltas on a coarse grid, so exact ties in `at` between
            // lane and heap entries are common.
            let delta = SimDuration::from_millis(5 * rng.uniform_u64(20));
            match rng.uniform_u64(10) {
                // The class the lane is for: a constant delay from now.
                0..=2 => pair.schedule(now + constant, true, None),
                // A FIFO call with an arbitrary deadline: falls back to the
                // heap whenever it is earlier than the lane's last entry.
                3 => pair.schedule(now + delta, true, None),
                4 | 5 => pair.schedule(now + delta, false, None),
                // Handlers schedule too, through either path.
                6 => {
                    let follow_up = if rng.chance(0.5) {
                        (constant, true)
                    } else {
                        (delta, false)
                    };
                    pair.schedule(now + delta, rng.chance(0.5), Some(follow_up));
                }
                // Cancel anything ever scheduled: live, fired or cancelled.
                7 if !pair.ids.is_empty() => {
                    let nth = rng.uniform_usize(pair.ids.len());
                    pair.cancel(nth);
                }
                8 => pair.run_until(now + delta),
                _ => pair.step(),
            }
            pair.assert_equal(&format!("case {case} step {step}"));
        }
        pair.real.0.run_to_completion(&mut pair.real.1);
        pair.reference.0.run_to_completion(&mut pair.reference.1);
        pair.assert_equal(&format!("case {case} drained"));
        assert_eq!(pair.real.0.pending(), 0);
    }
}

#[test]
fn a_cancelled_lane_head_is_skipped_by_run_until_and_by_step() {
    let mut pair = Pair::new();
    let at = |ms| SimTime::from_millis(ms);
    pair.schedule(at(10), true, None);
    pair.schedule(at(20), true, None);
    pair.schedule(at(30), true, None);
    pair.schedule(at(20), false, None);
    // Out of order for the lane: must fall back and still fire first.
    pair.schedule(at(5), true, None);
    pair.cancel(0);
    pair.run_until(at(15));
    pair.assert_equal("cancelled head, deadline before the next entry");
    assert_eq!(pair.real.1.fired, vec![4]);
    assert_eq!(pair.real.0.pending(), 3);
    // The tie at 20 ms breaks by schedule order: lane entry 1, heap entry 3.
    pair.cancel(2);
    pair.step();
    pair.step();
    pair.assert_equal("tie between lane and heap");
    assert_eq!(pair.real.1.fired, vec![4, 1, 3]);
    pair.step();
    pair.assert_equal("only a cancelled lane entry left");
    assert_eq!(pair.real.0.pending(), 0);
    assert_eq!(pair.real.0.events_fired(), 3);
}

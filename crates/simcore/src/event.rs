//! The future-event list.
//!
//! An [`EventQueue`] holds `(time, sequence)`-ordered events. The run loop
//! pops the earliest event, advances the clock, and invokes the event's
//! payload with mutable access to both the world and the queue so that
//! handlers can schedule follow-on events.
//!
//! Payloads are an [`EventPayload`] type of the simulation's own (the
//! cluster simulation's `SimEvent` enum), stored inline in a slab of pooled
//! slots, so the schedule/fire path performs no heap allocation once the
//! slab has grown to the run's high-water mark.
//!
//! Cancellation is sound across slot reuse: an [`EventId`] carries the
//! slot's generation, bumped every time the slot is vacated (fired or
//! cancelled), so a stale handle can never cancel a later occupant.
//! Cancelled entries are discarded lazily when popped.
//!
//! Entries wait in one of three structures:
//!
//! - the *near* heap: entries due within 100 ms of the clock when they were
//!   scheduled — the request path's own delays (a completion after its CPU
//!   time, a delivery at +0 or after the store's round trip);
//! - the *far* heap: every other `schedule_event_at` entry — client wakes
//!   a think time (seconds) ahead, maintenance ticks, faults and heals;
//! - the FIFO *lane*, for event classes whose deadlines are non-decreasing
//!   in schedule order (a constant delay from "now", such as a per-request
//!   timeout): those entries are already sorted, so they queue in a
//!   `VecDeque`.
//!
//! A request's short events are each pushed as the new minimum, so in one
//! heap with a client population's wakes they would sift through every
//! level on push and again on pop; in the near heap they meet only each
//! other. 100 ms is above the request path's delays (tens of ms at most)
//! and below the seconds-long think times; a 1 s horizon and a
//! threshold-free "earlier than the far heap's top" rule both measured
//! slower. The next event is whichever of the three heads has the
//! smallest `(time, sequence)` key. Sequence numbers are unique, so that
//! is one total order over every entry, and the minimum of the heads is
//! the global minimum: firing order does not depend on which structure
//! holds an entry.
//!
//! Ties in time are broken by insertion order, which — together with the
//! seeded [`SimRng`](crate::SimRng) — makes entire simulation runs
//! deterministic.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// An entry due less than this far after the clock goes to the near heap.
const NEAR: SimDuration = SimDuration::from_millis(100);

/// Identifier of a scheduled event, usable for cancellation.
///
/// Generation-tagged: the id names one *occupancy* of an arena slot, so it
/// stays valid (as "already gone") after the event fires and the slot is
/// reused by a later event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// What an event does when it fires.
///
/// Implementations consume themselves; the queue has already freed the
/// event's slot when `fire` runs, so handlers can schedule follow-ups
/// (including into the slot just vacated) without growing the arena.
pub trait EventPayload<W>: Sized {
    /// Fires the event against the world.
    fn fire(self, world: &mut W, queue: &mut EventQueue<W, Self>);
}

/// A heap entry is four words and `Copy`: ordering data plus the arena
/// coordinates of the payload.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl HeapEntry {
    fn id(self) -> EventId {
        EventId {
            slot: self.slot,
            gen: self.gen,
        }
    }

    /// The `(at, seq)` key as one integer: the same order, compared
    /// without a branch on whether the times tie.
    fn key(self) -> u128 {
        (u128::from(self.at.as_micros()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Which event pops next is fully determined by this total
        // order — sequence numbers are unique — so the heap's internal
        // layout is invisible to simulation traces and digests.
        other.key().cmp(&self.key())
    }
}

/// Which of the queue's three structures holds an entry.
#[derive(Clone, Copy)]
enum Source {
    Near,
    Far,
    Lane,
}

/// One pooled event slot. `gen` counts occupancies; a heap entry or
/// [`EventId`] whose generation disagrees is stale.
struct Slot<E> {
    gen: u32,
    label: &'static str,
    payload: Option<E>,
}

/// A deterministic future-event list over a world type `W` and an event
/// payload type `E`.
///
/// # Examples
///
/// ```
/// use simcore::{EventPayload, EventQueue, SimTime};
///
/// struct Bump(u32);
///
/// impl EventPayload<u32> for Bump {
///     fn fire(self, world: &mut u32, _queue: &mut EventQueue<u32, Bump>) {
///         *world += self.0;
///     }
/// }
///
/// let mut q = EventQueue::new();
/// let mut world = 0u32;
/// q.schedule_event_at(SimTime::from_secs(5), "bump", Bump(1));
/// q.run_to_completion(&mut world);
/// assert_eq!(world, 1);
/// assert_eq!(q.now(), SimTime::from_secs(5));
/// ```
pub struct EventQueue<W, E> {
    /// Heap entries due less than [`NEAR`] after the clock when flushed.
    near: BinaryHeap<HeapEntry>,
    /// Every other heap entry.
    far: BinaryHeap<HeapEntry>,
    /// Entries scheduled through [`EventQueue::schedule_event_fifo`], in
    /// ascending `(at, seq)` order by construction.
    lane: VecDeque<HeapEntry>,
    slots: Vec<Slot<E>>,
    /// Freed slot indices, reused LIFO (the exact reuse policy does not
    /// affect determinism — firing order is fixed by `(at, seq)` — but LIFO
    /// keeps the hot slots cache-resident).
    free: Vec<u32>,
    /// The most recently freed slot, kept out of `free` as a fast-path
    /// hint: fire-then-reschedule (the dominant DES pattern) reuses the
    /// slot it just vacated without touching the free list at all.
    hot: Option<u32>,
    /// The most recent schedule's heap entry, staged before entering a
    /// heap. A cancel that arrives while its entry is still staged simply
    /// discards it, so schedule-then-cancel guards cost no heap traffic
    /// and leave no tombstone. The stage is flushed before any pop or
    /// peek, so firing order is still the global `(at, seq)` minimum and
    /// traces/digests cannot observe the buffering. The clock cannot move
    /// while an entry is staged, so routing it at the flush sees the
    /// distance it was scheduled at.
    staged: Option<HeapEntry>,
    /// Live (scheduled, not-yet-fired, not-cancelled) events.
    live: usize,
    now: SimTime,
    next_seq: u64,
    fired: u64,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: EventPayload<W>> Default for EventQueue<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: EventPayload<W>> EventQueue<W, E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            far: BinaryHeap::new(),
            lane: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hot: None,
            staged: None,
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            fired: 0,
            _world: PhantomData,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Returns the number of live pending events (cancelled events are
    /// excluded, even if their heap entries have not been popped yet).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Returns the arena's high-water mark: the largest number of events
    /// that were ever pending at once (slots are pooled, never shrunk).
    pub fn arena_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event fires at the
    /// current time, after any already-queued events for this instant.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX` concurrent events.
    pub fn schedule_event_at(&mut self, at: SimTime, label: &'static str, payload: E) -> EventId {
        let entry = self.occupy(at, label, payload);
        self.push_heap(entry);
        entry.id()
    }

    /// Schedules `payload` at `at` like [`EventQueue::schedule_event_at`],
    /// for a class of events whose `at` never decreases from one call to
    /// the next (a constant delay from the current time). Such entries
    /// wait in a FIFO lane instead of a heap; firing order, cancellation
    /// and every counter are exactly those of `schedule_event_at`. A call
    /// whose `at` is earlier than the lane's last entry goes to a heap, so
    /// the method is correct for any argument.
    pub fn schedule_event_fifo(&mut self, at: SimTime, label: &'static str, payload: E) -> EventId {
        let entry = self.occupy(at, label, payload);
        if self.lane.back().is_some_and(|back| entry.at < back.at) {
            self.push_heap(entry);
        } else {
            self.lane.push_back(entry);
        }
        entry.id()
    }

    /// Stores `payload` in a pooled slot and returns its queue entry, keyed
    /// by the next sequence number.
    fn occupy(&mut self, at: SimTime, label: &'static str, payload: E) -> HeapEntry {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = match self.hot.take().or_else(|| self.free.pop()) {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.label = label;
                s.payload = Some(payload);
                (i, s.gen)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("event arena overflow");
                self.slots.push(Slot {
                    gen: 0,
                    label,
                    payload: Some(payload),
                });
                (i, 0)
            }
        };
        self.live += 1;
        HeapEntry { at, seq, slot, gen }
    }

    /// Stages `entry` for a heap, flushing the previously staged one.
    fn push_heap(&mut self, entry: HeapEntry) {
        if let Some(prev) = self.staged.replace(entry) {
            self.flush(prev);
        }
    }

    /// Pushes `entry` onto the heap its distance from the clock picks.
    fn flush(&mut self, entry: HeapEntry) {
        if entry.at < self.now + NEAR {
            self.near.push(entry);
        } else {
            self.far.push(entry);
        }
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_event_in(
        &mut self,
        delay: SimDuration,
        label: &'static str,
        payload: E,
    ) -> EventId {
        self.schedule_event_at(self.now + delay, label, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns true if the event had not yet fired (or been cancelled).
    /// Cancellation drops the payload and frees the slot immediately; a
    /// heap or lane entry stays behind and is discarded when popped (its
    /// generation no longer matches).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if slot.gen != id.gen || slot.payload.is_none() {
            return false;
        }
        slot.payload = None;
        slot.gen = slot.gen.wrapping_add(1);
        if self
            .staged
            .is_some_and(|e| e.slot == id.slot && e.gen == id.gen)
        {
            // Still staged: drop the entry outright, no tombstone.
            self.staged = None;
        }
        if let Some(prev) = self.hot.replace(id.slot) {
            self.free.push(prev);
        }
        self.live -= 1;
        true
    }

    /// Removes and returns the earliest live entry if it is due by
    /// `deadline`, discarding cancelled entries met on the way.
    fn pop_due(&mut self, deadline: SimTime) -> Option<HeapEntry> {
        if let Some(e) = self.staged.take() {
            self.flush(e);
        }
        loop {
            // `HeapEntry` orders inversely (for the max-heap): the greater
            // entry is the one with the smaller `(at, seq)` key.
            let mut head: Option<(HeapEntry, Source)> = None;
            for (top, source) in [
                (self.near.peek(), Source::Near),
                (self.far.peek(), Source::Far),
                (self.lane.front(), Source::Lane),
            ] {
                if let Some(&top) = top {
                    if head.is_none_or(|(best, _)| top > best) {
                        head = Some((top, source));
                    }
                }
            }
            let (entry, source) = head?;
            let live = self.slots[entry.slot as usize].gen == entry.gen;
            if live && entry.at > deadline {
                return None;
            }
            match source {
                Source::Near => {
                    self.near.pop();
                }
                Source::Far => {
                    self.far.pop();
                }
                Source::Lane => {
                    self.lane.pop_front();
                }
            }
            if live {
                return Some(entry);
            }
            // Cancelled: the slot moved on.
        }
    }

    /// Advances the clock to `entry` and fires it.
    fn fire(&mut self, entry: HeapEntry, world: &mut W) -> &'static str {
        let slot = &mut self.slots[entry.slot as usize];
        debug_assert!(entry.at >= self.now, "time must be monotone");
        self.now = entry.at;
        self.fired += 1;
        self.live -= 1;
        let label = slot.label;
        let payload = slot.payload.take().expect("live slot has a payload");
        // Free the slot before firing so handlers scheduling follow-ups
        // reuse it instead of growing the arena.
        slot.gen = slot.gen.wrapping_add(1);
        if let Some(prev) = self.hot.replace(entry.slot) {
            self.free.push(prev);
        }
        payload.fire(world, self);
        label
    }

    /// Fires the single earliest pending event, if any.
    ///
    /// Returns the label of the fired event, or `None` if the queue was
    /// empty or contained only cancelled events.
    pub fn step(&mut self, world: &mut W) -> Option<&'static str> {
        let entry = self.pop_due(SimTime::FAR_FUTURE)?;
        Some(self.fire(entry, world))
    }

    /// Runs events until the queue is empty.
    pub fn run_to_completion(&mut self, world: &mut W) {
        while self.step(world).is_some() {}
    }

    /// Runs events with firing time `<= deadline`, then advances the clock
    /// to `deadline`.
    ///
    /// Events scheduled after `deadline` remain pending.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(entry) = self.pop_due(deadline) {
            self.fire(entry, world);
        }
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests' one event type, over a log of what fired.
    enum Ev {
        /// Logs the number.
        Push(u32),
        /// Logs `n`, then reschedules itself a second later up to `until`.
        Count { n: u32, until: u32 },
        /// Logs 1, then schedules `Push(2)` in the past.
        PushThenBackdate,
    }

    type Queue = EventQueue<Vec<u32>, Ev>;

    impl EventPayload<Vec<u32>> for Ev {
        fn fire(self, log: &mut Vec<u32>, q: &mut Queue) {
            match self {
                Ev::Push(n) => log.push(n),
                Ev::Count { n, until } => {
                    log.push(n);
                    if n < until {
                        let next = Ev::Count { n: n + 1, until };
                        q.schedule_event_in(SimDuration::from_secs(1), "count", next);
                    }
                }
                Ev::PushThenBackdate => {
                    log.push(1);
                    q.schedule_event_at(SimTime::from_secs(1), "clamped", Ev::Push(2));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        q.schedule_event_at(SimTime::from_secs(3), "c", Ev::Push(3));
        q.schedule_event_at(SimTime::from_secs(1), "a", Ev::Push(1));
        q.schedule_event_at(SimTime::from_secs(2), "b", Ev::Push(2));
        q.run_to_completion(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(q.events_fired(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        for i in 0..10u32 {
            q.schedule_event_at(SimTime::from_secs(1), "tie", Ev::Push(i));
        }
        q.run_to_completion(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        let first = Ev::Count { n: 1, until: 5 };
        q.schedule_event_in(SimDuration::from_secs(1), "count", first);
        q.schedule_event_at(SimTime::from_secs(10), "stop", Ev::Push(99));
        q.run_until(&mut log, SimTime::from_secs(5));
        assert_eq!(log, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_secs(5));
        q.run_to_completion(&mut log);
        assert_eq!(log.last(), Some(&99));
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        let id = q.schedule_event_at(SimTime::from_secs(1), "x", Ev::Push(1));
        q.schedule_event_at(SimTime::from_secs(2), "y", Ev::Push(10));
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double cancel reports false");
        q.run_to_completion(&mut log);
        assert_eq!(log, vec![10]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        q.schedule_event_at(SimTime::from_secs(1), "early", Ev::Push(1));
        q.schedule_event_at(SimTime::from_secs(10), "late", Ev::Push(100));
        q.run_until(&mut log, SimTime::from_secs(5));
        assert_eq!(log, vec![1]);
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert_eq!(q.pending(), 1);
        q.run_to_completion(&mut log);
        assert_eq!(log, vec![1, 100]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        // Scheduling "in the past" fires at the current instant.
        q.schedule_event_at(SimTime::from_secs(5), "first", Ev::PushThenBackdate);
        q.run_to_completion(&mut log);
        assert_eq!(log, vec![1, 2]);
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        let id = q.schedule_event_at(SimTime::from_secs(1), "x", Ev::Push(1));
        q.cancel(id);
        q.run_until(&mut log, SimTime::from_secs(2));
        assert!(log.is_empty());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn stale_id_cannot_cancel_a_reused_slot() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        let old = q.schedule_event_at(SimTime::from_secs(1), "a", Ev::Push(1));
        q.run_to_completion(&mut log);
        assert_eq!(log, vec![1]);
        // The fired event's slot is reused by the next schedule; its old id
        // must be inert.
        let fresh = q.schedule_event_at(SimTime::from_secs(2), "b", Ev::Push(10));
        assert!(!q.cancel(old), "stale id reports false");
        q.run_to_completion(&mut log);
        assert_eq!(log, vec![1, 10], "the reused slot's event still fired");
        assert!(!q.cancel(fresh), "fired event reports false");
    }

    #[test]
    fn slots_are_pooled_at_steady_state() {
        let mut q = Queue::new();
        let mut log = Vec::new();
        // A self-rescheduling chain with one live event only ever needs one
        // slot, no matter how many events fire.
        let first = Ev::Count { n: 1, until: 100 };
        q.schedule_event_in(SimDuration::from_secs(1), "count", first);
        q.run_to_completion(&mut log);
        assert_eq!(log.len(), 100);
        assert_eq!(q.arena_capacity(), 1, "one live event needs one slot");
    }

    #[test]
    fn scrambled_schedules_fire_in_total_key_order() {
        /// Logs when it fired and the sequence number it was scheduled with.
        struct Key(u64);
        impl EventPayload<Vec<(SimTime, u64)>> for Key {
            fn fire(
                self,
                log: &mut Vec<(SimTime, u64)>,
                q: &mut EventQueue<Vec<(SimTime, u64)>, Key>,
            ) {
                log.push((q.now(), self.0));
            }
        }
        // Scramble insertion order with a deterministic LCG walk, including
        // time ties (broken by insertion sequence), and check events fire
        // in the exact (at, seq) total order.
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        let mut x = 12345u64;
        for seq in 0..1000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = SimTime::from_micros(x % 97);
            keys.push((at, seq));
            q.schedule_event_at(at, "k", Key(seq));
        }
        keys.sort_unstable();
        let mut fired = Vec::new();
        q.run_to_completion(&mut fired);
        assert_eq!(fired, keys);
    }
}

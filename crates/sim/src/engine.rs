//! The event loop: a time-ordered queue of model events.

use crate::time::SimTime;

/// A simulation model: application state plus an event handler.
///
/// The engine is generic over the event type so that models can use a plain
/// `enum` of events with no boxing on the hot path.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handles one event at simulated time `now`.
    ///
    /// The handler may schedule any number of future events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Fan-out of the pending-event heap.
///
/// A 4-ary heap is shallower than a binary one (fewer sift levels per
/// pop) and its four child keys share a cache line, which is where a
/// discrete-event simulator spends its queue time.
const ARITY: usize = 4;

/// The event queue handed to [`Model::handle`] for scheduling future events.
///
/// Models only insert events; popping is normally the engine's job (the
/// engine borrows the model mutably while the model schedules), but
/// [`Scheduler::pop`] is public for standalone use and benchmarking.
///
/// Internally this is an implicit 4-ary min-heap in structure-of-arrays
/// form: `keys[i]` packs `(time, seq)` of `events[i]` into one `u128`
/// (`time` in the high 64 bits, a monotonic sequence number in the low 64),
/// so heap ordering is a single integer comparison and sift loops scan
/// contiguous keys without touching event payloads. `seq` breaks ties
/// between events scheduled for the same instant: events fire in the order
/// they were scheduled, which makes runs reproducible.
pub struct Scheduler<E> {
    /// Heap-ordered packed `(time << 64) | seq` keys, parallel to `events`.
    keys: Vec<u128>,
    /// Event payloads; `events[i]` belongs to `keys[i]`.
    events: Vec<E>,
    /// Sequence number for the next schedule, and the all-time total.
    next_seq: u64,
}

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("pending", &self.keys.len())
            .field("total_scheduled", &self.next_seq)
            .finish()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            keys: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Events scheduled for the same instant fire in scheduling order.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.push(pack(at, seq));
        self.events.push(event);
        self.sift_up(self.keys.len() - 1);
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.keys.len()
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        // Sequence numbers are dense from zero, so the next one to hand
        // out doubles as the all-time count.
        self.next_seq
    }

    /// Removes and returns the earliest pending event, if any.
    ///
    /// Ties on time come out in scheduling order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.keys.is_empty() {
            return None;
        }
        let last = self.keys.len() - 1;
        self.keys.swap(0, last);
        self.events.swap(0, last);
        let key = self.keys.pop().expect("checked non-empty");
        let event = self.events.pop().expect("keys and events stay parallel");
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        Some((unpack_time(key), event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&k| unpack_time(k))
    }

    // Both sift loops treat the starting slot as a hole: the sifted key is
    // held in a register and written exactly once at its final position,
    // halving key traffic versus swapping at every level.

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let parent_key = self.keys[parent];
            if parent_key <= key {
                break;
            }
            self.keys[i] = parent_key;
            self.events.swap(parent, i);
            i = parent;
        }
        self.keys[i] = key;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        let key = self.keys[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut min = first_child;
            let mut min_key = self.keys[first_child];
            for c in first_child + 1..last_child {
                let k = self.keys[c];
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if key <= min_key {
                break;
            }
            self.keys[i] = min_key;
            self.events.swap(i, min);
            i = min;
        }
        self.keys[i] = key;
    }
}

/// The simulation engine: owns the model, the clock, and the event queue.
///
/// See the crate-level documentation for a complete example.
pub struct Simulator<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> std::fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.sched.pending())
            .finish()
    }
}

impl<M: Model> Simulator<M> {
    /// Creates a simulator at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulator {
            model,
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Exclusive access to the scheduler, e.g. to seed initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Runs one event. Returns `false` if the queue was empty.
    ///
    /// # Panics
    ///
    /// Panics if an event is scheduled in the past (a model bug).
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((at, event)) => {
                assert!(at >= self.now, "event scheduled in the past");
                self.now = at;
                self.processed += 1;
                self.model.handle(at, event, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event is after `deadline`.
    ///
    /// Events at exactly `deadline` are processed. On return the clock is
    /// the time of the last processed event (it is *not* advanced to
    /// `deadline` when the queue drains early).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.sched.peek_time() {
            if at > deadline {
                break;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now.as_nanos(), ev));
            if ev == 42 {
                sched.schedule(now + SimTime::from_nanos(5), 43);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new(Recorder::default());
        sim.scheduler_mut().schedule(SimTime::from_nanos(30), 3);
        sim.scheduler_mut().schedule(SimTime::from_nanos(10), 1);
        sim.scheduler_mut().schedule(SimTime::from_nanos(20), 2);
        sim.run();
        assert_eq!(sim.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut sim = Simulator::new(Recorder::default());
        let t = SimTime::from_nanos(7);
        for ev in 0..5 {
            sim.scheduler_mut().schedule(t, ev);
        }
        sim.run();
        let evs: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim = Simulator::new(Recorder::default());
        sim.scheduler_mut().schedule(SimTime::from_nanos(1), 42);
        sim.run();
        assert_eq!(sim.model().seen, vec![(1, 42), (6, 43)]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(Recorder::default());
        for i in 1..=10 {
            sim.scheduler_mut()
                .schedule(SimTime::from_nanos(i * 10), i as u32);
        }
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!(sim.model().seen.len(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.scheduler_mut().pending(), 5);
        sim.run();
        assert_eq!(sim.model().seen.len(), 10);
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut sim = Simulator::new(Recorder::default());
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                sched.schedule(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulator::new(Bad);
        sim.scheduler_mut().schedule(SimTime::from_nanos(10), ());
        // First event at t=10 schedules one at t=0 -> panic on processing.
        sim.step();
        sim.step();
    }
}

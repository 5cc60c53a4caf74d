//! Deterministic future-event list and simulation driver.
//!
//! [`EventQueue`] is a binary heap that pops in exactly `(time, seq)`
//! order — same-time events fire in insertion order — so a simulation's
//! event stream, and therefore every RNG draw and published figure, is
//! bit-identical across runs. [`Simulator`] drives one; the model test in
//! `tests/queue_model.rs` checks the queue against a sorted-`Vec`
//! reference.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the future-event list.
///
/// Ordered by `(time, seq)` so that events scheduled for the same instant
/// fire in insertion order, making runs deterministic.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry is popped
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: a priority queue of `(SimTime, E)` pairs with
/// deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(5), 'x');
/// q.schedule(SimTime::from_nanos(5), 'y');
/// assert_eq!(q.pop().unwrap().1, 'x'); // same-time events pop FIFO
/// assert_eq!(q.pop().unwrap().1, 'y');
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest `(time, seq, event)` entry.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.event))
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events. `next_seq` is deliberately NOT reset:
    /// sequence numbers stay unique across a mid-run clear, so same-time
    /// events never reorder against survivors of earlier epochs.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The sequence number the next scheduled event will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// Scheduling context handed to event handlers by [`Simulator::run_until`].
///
/// Handlers use it to read the current simulated time and schedule follow-up
/// events without borrowing the simulator itself.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Scheduler<'_, E> {
    /// Current simulated time (the firing time of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a follow-up event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past: causality violations are bugs.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.queue.schedule(time, event);
    }

    /// Schedules a follow-up event `delay` after now.
    pub fn schedule_after(&mut self, delay: crate::SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }
}

/// A minimal simulation driver: pops events in time order and dispatches
/// them to a handler closure until a deadline or queue exhaustion.
///
/// The world state lives in the handler's environment (typically a struct
/// the caller owns), keeping `Simulator` free of borrows.
///
/// # Example
///
/// ```
/// use simcore::{Simulator, SimTime, SimDuration};
///
/// #[derive(Debug)]
/// enum Ev { Tick(u32) }
///
/// let mut sim = Simulator::new();
/// sim.schedule(SimTime::ZERO, Ev::Tick(0));
/// let mut count = 0;
/// sim.run_until(SimTime::from_secs_f64(1.0), |sched, ev| {
///     let Ev::Tick(n) = ev;
///     count += 1;
///     if n < 100 {
///         sched.schedule_after(SimDuration::from_millis_f64(5.0), Ev::Tick(n + 1));
///     }
/// });
/// assert_eq!(count, 101);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with an empty event list.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current simulated time.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.queue.schedule(time, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs the simulation, dispatching every event with firing time
    /// `<= deadline` to `handler`, then advances the clock to `deadline`.
    ///
    /// Returns the number of events dispatched.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<'_, E>, E),
    {
        let mut dispatched = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (t, event) = self.queue.pop().expect("peeked entry vanished");
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            let mut sched = Scheduler {
                now: t,
                queue: &mut self.queue,
            };
            handler(&mut sched, event);
            dispatched += 1;
        }
        self.now = self.now.max(deadline);
        dispatched
    }

    /// Drops all pending events (the clock is untouched).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    /// Regression: `clear` must NOT reset the sequence counter. If it
    /// did, events scheduled after a mid-run clear would reuse sequence
    /// numbers and could pop out of insertion order relative to any
    /// observer comparing `(time, seq)` identities across the clear.
    #[test]
    fn clear_preserves_next_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 'a');
        q.schedule(SimTime::from_nanos(2), 'b');
        assert_eq!(q.next_seq(), 2);
        q.clear();
        assert_eq!(q.next_seq(), 2, "clear must not re-issue seq numbers");
        q.schedule(SimTime::from_nanos(3), 'c');
        let (_, seq, e) = q.pop_entry().unwrap();
        assert_eq!((seq, e), (2, 'c'));
    }

    #[test]
    fn simulator_advances_clock_to_deadline() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), ());
        let n = sim.run_until(SimTime::from_nanos(100), |_, _| {});
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn simulator_leaves_future_events_pending() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), 1);
        sim.schedule(SimTime::from_nanos(200), 2);
        let mut seen = vec![];
        sim.run_until(SimTime::from_nanos(100), |_, e| seen.push(e));
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.pending(), 1);
        sim.run_until(SimTime::from_nanos(300), |_, e| seen.push(e));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn handler_can_chain_events() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut fired = 0;
        sim.run_until(SimTime::from_secs_f64(10.0), |sched, n| {
            fired += 1;
            if n < 9 {
                sched.schedule_after(SimDuration::from_secs_f64(0.5), n + 1);
            }
        });
        assert_eq!(fired, 10);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(50), ());
        sim.run_until(SimTime::from_nanos(100), |_, _| {});
        sim.schedule(SimTime::from_nanos(10), ());
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }
}

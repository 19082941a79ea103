//! The event queue both edge-server twins run on.
//!
//! [`EventQueue`] is a binary-heap priority queue of timestamped events
//! with a **deterministic total order**: events pop in `(time, seq)`
//! order, where `seq` is the queue's monotonically increasing schedule
//! counter, so two runs that schedule the same events in the same order
//! pop them in the same order on every platform, whatever the heap does
//! inside. Who handles an event is the owner's business: each twin owns
//! its queue and its RNG and dispatches with a plain `match`.
//!
//! Time is a `u64` key in the owner's unit — tick-boundary indices for
//! the frame engine (`engine.rs`), microseconds for the serve twin
//! (`serve_sim.rs`). An integer key keeps ordering total by construction
//! (no NaN, no tie-break-by-bits).
//!
//! Cancellation is by *generation*, not by queue surgery: a stale event
//! stays in the heap and is recognised when it pops (a window generation
//! in its payload; for a reconfiguration settle, its time against the
//! pending one — `downtime.rs`). The heap stays append-only and the pop
//! order trivially deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event popped from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Discrete time key the event fires at.
    pub time: u64,
    /// Schedule-order sequence number (unique per queue).
    pub seq: u64,
    /// Caller-defined payload.
    pub payload: E,
}

/// Heap entry; ordering ignores the payload so `E` needs no `Ord`.
struct HeapEntry<E>(Scheduled<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) first.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event priority queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: u64,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// Empty queue at time 0 with pre-allocated heap storage
    /// (zero-realloc runs when the event count is known up front).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: 0,
            processed: 0,
        }
    }

    /// Schedules `payload` at `time`; returns the sequence number
    /// assigned to the event.
    ///
    /// Scheduling into the past (before the last popped event) is a
    /// logic error in the caller; it is caught in debug builds.
    pub fn schedule(&mut self, time: u64, payload: E) -> u64 {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Scheduled { time, seq, payload }));
        seq
    }

    /// Time key of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pops the earliest event (by `(time, seq)`) and advances
    /// the queue clock to its time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let ev = self.heap.pop().map(|e| e.0)?;
        self.now = ev.time;
        self.processed += 1;
        Some(ev)
    }

    /// Time of the last popped event (0 before any pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_tensor::rng::rng_from_seed;
    use rand::RngExt;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::with_capacity(4);
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_sequence() {
        // Same time: pop order must follow the *schedule* order (seq),
        // not payload or heap internals.
        let mut q = EventQueue::with_capacity(4);
        q.schedule(5, "first");
        q.schedule(5, "second");
        q.schedule(5, "third");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn pop_order_is_reproducible_under_interleaved_schedules() {
        // Schedule a pseudo-random pattern twice; pop sequences must be
        // identical element-for-element.
        let build = || {
            let mut q = EventQueue::with_capacity(4);
            let mut rng = rng_from_seed(99);
            for i in 0..500u64 {
                let t = q.now() + rng.random_range(0..50u64);
                q.schedule(t, i);
                if i % 3 == 0 {
                    q.pop();
                }
            }
            std::iter::from_fn(move || q.pop())
                .map(|e| (e.time, e.seq, e.payload))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn clock_follows_popped_events() {
        let mut q = EventQueue::with_capacity(4);
        q.schedule(7, ());
        q.schedule(12, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.pop();
        assert_eq!(q.now(), 12);
        assert_eq!(q.processed(), 2);
    }
}

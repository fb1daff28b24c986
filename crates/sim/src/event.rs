//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is the heart of every simulator in this workspace: the
//! network simulator, the Monte-Carlo dependability models and the failure
//! injection campaigns all drive their state machines from one of these
//! queues. Determinism matters — an experiment must be exactly reproducible
//! from its seed — so ties in timestamps are broken by insertion order
//! (FIFO), never by heap internals.
//!
//! Events can be cancelled in O(1) via the [`EventId`] returned at schedule
//! time; cancelled entries are dropped lazily when they surface.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use crate::time::SimTime;

/// Handle identifying a scheduled event, usable to cancel it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Order by (time, seq): earliest first, FIFO among equal times.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A future-event list with a monotone clock.
///
/// The queue owns the notion of "now": popping an event advances the clock
/// to that event's timestamp. Scheduling into the past is rejected.
///
/// # Examples
///
/// ```
/// use nlft_sim::event::EventQueue;
/// use nlft_sim::time::{SimTime, SimDuration};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late")?;
/// q.schedule(SimTime::from_millis(1), "early")?;
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_millis(1), "early"));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// # Ok::<(), nlft_sim::event::ScheduleError>(())
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence numbers scheduled but not yet popped or cancelled.
    live: HashSet<u64>,
    now: SimTime,
    next_seq: u64,
}

/// Error returned when an event cannot be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The requested timestamp lies before the current simulation time.
    InPast {
        /// The current clock value.
        now: SimTime,
        /// The rejected timestamp.
        requested: SimTime,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InPast { now, requested } => write!(
                f,
                "cannot schedule event at {requested} before current time {now}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InPast`] when `at` is earlier than
    /// [`EventQueue::now`]. Scheduling *at* the current time is allowed and
    /// the event will be delivered after all already-queued events with the
    /// same timestamp.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> Result<EventId, ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::InPast {
                now: self.now,
                requested: at,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
        Ok(EventId(seq))
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was pending, `false` if it already fired,
    /// was already cancelled, or never existed.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.live.remove(&id.0)
    }

    /// Removes and returns the next live event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if !self.live.remove(&entry.seq) {
                continue; // cancelled: drop lazily
            }
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Timestamp of the next live event without removing it.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled heads so the peek is accurate.
        while let Some(Reverse(entry)) = self.heap.peek() {
            if !self.live.contains(&entry.seq) {
                self.heap.pop();
            } else {
                return Some(entry.time);
            }
        }
        None
    }

    /// Removes and returns the next event only if it fires at or before
    /// `deadline`; the clock never advances past `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(30), 'c').unwrap();
        q.schedule(at_ms(10), 'a').unwrap();
        q.schedule(at_ms(20), 'b').unwrap();
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at_ms(5), i).unwrap();
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(7), ()).unwrap();
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), at_ms(7));
    }

    #[test]
    fn scheduling_in_past_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(10), ()).unwrap();
        q.pop();
        let err = q.schedule(at_ms(5), ()).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::InPast {
                now: at_ms(10),
                requested: at_ms(5)
            }
        );
        // Scheduling exactly at `now` is fine.
        assert!(q.schedule(at_ms(10), ()).is_ok());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(at_ms(1), 'a').unwrap();
        q.schedule(at_ms(2), 'b').unwrap();
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_fire() {
        let mut q = EventQueue::new();
        let a = q.schedule(at_ms(1), 'a').unwrap();
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        let b = q.schedule(at_ms(2), 'b').unwrap();
        q.pop();
        assert!(!q.cancel(b), "cancel after fire reports false");
        assert!(!q.cancel(EventId(9999)), "unknown id reports false");
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(5), 'a').unwrap();
        q.schedule(at_ms(15), 'b').unwrap();
        assert_eq!(q.pop_before(at_ms(10)).map(|(_, e)| e), Some('a'));
        assert_eq!(q.pop_before(at_ms(10)), None);
        assert_eq!(q.now(), at_ms(5), "clock stays at last delivered event");
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(at_ms(1), 'a').unwrap();
        q.schedule(at_ms(2), 'b').unwrap();
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(at_ms(2)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(at_ms(i), i).unwrap()).collect();
        for id in ids.iter().take(4) {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }
}

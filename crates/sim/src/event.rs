//! The event queue: a time-ordered heap with FIFO tie-breaking.
//!
//! Every pending event has a key `(time, seq)`: its instant, and a
//! sequence number drawn from one counter in scheduling order, so
//! simultaneous events run FIFO. The heap orders keys only —
//! `(SimTime, seq, slot)`, 24 bytes — and each key names the slot of a
//! slab that holds the event itself; a popped event's slot goes on a free
//! list for the next one. A sift therefore moves 24 bytes whatever the
//! size of `E`.
//!
//! The two-host simulator also draws sequence numbers it never schedules:
//! a link's serialization ends wait in a FIFO beside the link under a key
//! from this counter, and are credited exactly where a popped event with
//! that key would have been (see the `sim` module).

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry: `(time, seq, slab slot)`, reversed so that the max-heap
/// pops the earliest key. Seqs are unique, so the slot never breaks a tie.
type Key = Reverse<(SimTime, u64, u32)>;

/// A deterministic discrete-event queue.
///
/// Popping advances the virtual clock; scheduling in the past is a
/// programming error and panics (events at exactly `now` are fine and run
/// after the current event).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending keys, earliest first.
    heap: BinaryHeap<Key>,
    /// Pending events; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// The free slots of `slab`.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let seq = self.reserve_seq();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .expect("fewer than 2^32 events are pending at once");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _, event)| (time, event))
    }

    /// [`Self::pop`], with the popped event's sequence number.
    pub(crate) fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let Reverse((time, seq, slot)) = self.heap.pop()?;
        debug_assert!(time >= self.now, "clock went backwards");
        self.now = time;
        let event = self.slab[slot as usize]
            .take()
            .expect("every heap key names a full slab slot");
        self.free.push(slot);
        Some((time, seq, event))
    }

    /// Draws the next sequence number without scheduling anything: the
    /// key of an event kept outside the queue, which orders against the
    /// queued ones as if it had been scheduled here.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Advances the clock to `at` if that is later: an event kept outside
    /// the queue was dispatched there.
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_after_uses_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "first");
        q.pop();
        q.schedule_after(SimDuration::from_nanos(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(15));
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.pop();
        q.schedule(q.now(), 2);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.pop();
        q.schedule(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn a_heap_key_stays_small() {
        // A sift moves keys, not events: time, seq and a 4-byte slot.
        assert!(std::mem::size_of::<Key>() <= 24);
    }

    #[test]
    fn reused_slots_keep_time_and_fifo_order() {
        // Interleaved schedules and pops recycle slab slots; the queue
        // must still pop exactly what an ordered map of `(time, seq)`
        // keys pops.
        let mut q = EventQueue::new();
        let mut model = std::collections::BTreeMap::new();
        let mut rng = dmc_stats::rng::Xoshiro256::seed_from_u64(7);
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if rng.next_u64() % 3 == 0 {
                assert_eq!(q.pop(), model.pop_first().map(|((t, _), e)| (t, e)));
            } else {
                let at = q.now() + SimDuration::from_nanos(rng.next_u64() % 8);
                q.schedule(at, seq);
                model.insert((at, seq), seq);
                seq += 1;
            }
            assert_eq!(q.len(), model.len());
        }
        while let Some(popped) = q.pop() {
            assert_eq!(Some(popped), model.pop_first().map(|((t, _), e)| (t, e)));
        }
        assert!(model.is_empty());
        assert!(q.slab.len() < 5_000, "slots are reused");
    }

    #[test]
    fn len_tracks_pending() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}

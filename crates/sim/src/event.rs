//! The event queue: a time-ordered heap with FIFO lanes beside it.
//!
//! Every pending event has a key `(time, seq)`: its instant, and a
//! sequence number drawn from one counter in scheduling order, so
//! simultaneous events run FIFO. Events are dispatched in exact key order,
//! whichever of two places holds the key:
//!
//! * **the heap** orders keys only — `(SimTime, seq, slot)`, 24 bytes —
//!   and each key names the slot of a slab that holds the event itself; a
//!   popped event's slot goes on a free list for the next one. A sift
//!   therefore moves 24 bytes whatever the size of `E`;
//! * **a lane** is a FIFO of the same keys. `schedule_in(lane, …)`
//!   appends an event's key to the lane when it is not below the lane's
//!   last key, and pushes it on the heap otherwise, so every lane is in
//!   key order and its head is its least key. An event a lane takes costs
//!   an append and a pop-front instead of two sifts.
//!
//! The lane heads are kept packed (`time · 2⁶⁴ + seq`) in one contiguous
//! array; [`EventQueue::pop`], [`EventQueue::peek_time`] and the crate's
//! `pop_until` take the least key over the heap top and every lane head
//! up to the highest lane ever used. An empty lane's head is `u128::MAX`,
//! which no key packs to: the counter never hands out seq `u64::MAX`. The two-host simulator picks
//! the lanes (see the `sim` module); a queue built with
//! [`EventQueue::new`] has none.
//!
//! The two-host simulator also draws sequence numbers it never schedules:
//! a link's serialization ends wait in a FIFO beside the link under a key
//! from this counter, and are credited exactly where a popped event with
//! that key would have been.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pending event's key: `(time, seq, slab slot)`. Seqs are unique, so
/// the slot never breaks a tie.
type Key = (SimTime, u64, u32);

/// A packed `(time, seq)`: one compare orders two keys.
type Packed = u128;

/// The head of an empty lane, above every packed key.
const EMPTY: Packed = Packed::MAX;

/// Where the least pending key is when no lane holds it.
const HEAP: usize = usize::MAX;

fn pack(time: SimTime, seq: u64) -> Packed {
    (Packed::from(time.as_nanos()) << 64) | Packed::from(seq)
}

fn packed_time(key: Packed) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// A deterministic discrete-event queue.
///
/// Popping advances the virtual clock; scheduling in the past is a
/// programming error and panics (events at exactly `now` are fine and run
/// after the current event).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending keys off the lanes, earliest first (a max-heap of reversed
    /// keys).
    heap: BinaryHeap<Reverse<Key>>,
    /// Each lane's pending keys, in key order.
    lanes: Vec<VecDeque<Key>>,
    /// Each lane's front key packed, or [`EMPTY`].
    heads: Vec<Packed>,
    /// One past the highest lane ever scheduled in: the lanes from here
    /// on are empty, and the scan for the least key skips them.
    used: usize,
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
        Self::with_lanes(0)
    }

    /// Creates an empty queue at time zero with `lanes` lanes, numbered
    /// from 0.
    pub(crate) fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            heads: vec![EMPTY; lanes],
            used: 0,
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
        let key = self.insert(at, event);
        self.heap.push(Reverse(key));
    }

    /// Schedules `event` at absolute time `at` in lane `lane`: appended
    /// when `at` is not below the lane's last key's time (its seq is above
    /// every pending one), pushed on the heap otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or `lane` is out of
    /// range.
    pub(crate) fn schedule_in(&mut self, lane: usize, at: SimTime, event: E) {
        let key = self.insert(at, event);
        let keys = &mut self.lanes[lane];
        match keys.back() {
            None => {
                self.heads[lane] = pack(at, key.1);
                self.used = self.used.max(lane + 1);
                keys.push_back(key);
            }
            Some(&(last, ..)) if at >= last => keys.push_back(key),
            Some(_) => self.heap.push(Reverse(key)),
        }
    }

    /// Stores `event` in a free slab slot under a fresh seq; returns its
    /// key.
    fn insert(&mut self, at: SimTime, event: E) -> Key {
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
        (at, seq, slot)
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
            .map(|(time, _, event)| (time, event))
    }

    /// Pops the earliest event if it is due at or before `end`, advancing
    /// the clock to its timestamp; returns it with its sequence number.
    pub(crate) fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        let (from, key) = self.least();
        if key == EMPTY || packed_time(key) > end {
            return None;
        }
        let (time, seq, slot) = if from == HEAP {
            let Reverse(key) = self.heap.pop().expect("the least key is the heap's top");
            key
        } else {
            let keys = &mut self.lanes[from];
            let key = keys.pop_front().expect("the least key is this lane's head");
            self.heads[from] = keys
                .front()
                .map_or(EMPTY, |&(time, seq, _)| pack(time, seq));
            key
        };
        debug_assert_eq!(pack(time, seq), key);
        debug_assert!(time >= self.now, "clock went backwards");
        self.now = time;
        let event = self.slab[slot as usize]
            .take()
            .expect("every pending key names a full slab slot");
        self.free.push(slot);
        Some((time, seq, event))
    }

    /// The least pending key, packed, and the lane that holds it ([`HEAP`]
    /// for the heap); the key is [`EMPTY`] when nothing is pending.
    fn least(&self) -> (usize, Packed) {
        let mut key = self
            .heap
            .peek()
            .map_or(EMPTY, |&Reverse((time, seq, _))| pack(time, seq));
        let mut from = HEAP;
        for (lane, &head) in self.heads[..self.used].iter().enumerate() {
            if head < key {
                key = head;
                from = lane;
            }
        }
        (from, key)
    }

    /// Number of pending events in lanes.
    #[cfg(test)]
    pub(crate) fn in_lanes(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Whether lane `lane` holds no key.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub(crate) fn lane_is_empty(&self, lane: usize) -> bool {
        self.heads[lane] == EMPTY
    }

    /// Draws the next sequence number without scheduling anything: the
    /// key of an event kept outside the queue, which orders against the
    /// queued ones as if it had been scheduled here.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        // Seq `u64::MAX` is never handed out: at time `u64::MAX` it would
        // pack to `EMPTY`.
        assert!(seq < u64::MAX, "fewer than 2^64 - 1 keys are drawn");
        self.next_seq = seq + 1;
        seq
    }

    /// Advances the clock to `at` if that is later: an event kept outside
    /// the queue was dispatched there.
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let (_, key) = self.least();
        (key != EMPTY).then(|| packed_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    fn element_size<T>(_: &VecDeque<T>) -> usize {
        std::mem::size_of::<T>()
    }

    #[test]
    fn a_lane_entry_stays_small() {
        // A lane holds the heap's keys, not events, and a head packs into
        // 16 bytes: the scan over the heads reads one contiguous array.
        let q: EventQueue<[u8; 64]> = EventQueue::with_lanes(1);
        assert!(element_size(&q.lanes[0]) <= 24);
        assert!(std::mem::size_of_val(&q.heads[0]) <= 16);
    }

    #[test]
    fn equal_times_across_lanes_and_the_heap_pop_by_seq() {
        let mut q = EventQueue::with_lanes(2);
        let t = SimTime::from_nanos(5);
        for (i, lane) in [None, Some(0), Some(1), None, Some(1), Some(0)]
            .into_iter()
            .enumerate()
        {
            match lane {
                Some(lane) => q.schedule_in(lane, t, i),
                None => q.schedule(t, i),
            }
        }
        assert_eq!(q.heap.len(), 2);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn an_out_of_order_key_falls_back_to_the_heap() {
        let mut q = EventQueue::with_lanes(1);
        q.schedule_in(0, SimTime::from_nanos(20), "late");
        q.schedule_in(0, SimTime::from_nanos(10), "early");
        q.schedule_in(0, SimTime::from_nanos(20), "tie");
        assert_eq!((q.lanes[0].len(), q.heap.len()), (2, 1));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "late", "tie"]);
        assert!(q.lane_is_empty(0));
    }

    #[test]
    fn an_event_at_the_end_of_time_in_a_lane_is_dispatched() {
        // An empty lane's head is no key: a real key at `u64::MAX` ns
        // still pops, heap or lane, in seq order.
        let end = SimTime::from_nanos(u64::MAX);
        let mut q = EventQueue::with_lanes(2);
        q.schedule(end, "heap");
        q.schedule_in(1, end, "lane");
        assert_eq!((q.peek_time(), q.len()), (Some(end), 2));
        assert_eq!(
            q.pop_until(end).map(|(_, seq, e)| (seq, e)),
            Some((0, "heap"))
        );
        assert_eq!((q.peek_time(), q.len()), (Some(end), 1));
        assert_eq!(
            q.pop_until(end).map(|(_, seq, e)| (seq, e)),
            Some((1, "lane"))
        );
        assert_eq!((q.peek_time(), q.len()), (None, 0));
        assert_eq!(q.pop_until(end), None);
        assert_eq!(q.now(), end);
    }

    #[test]
    fn pop_until_leaves_a_later_event_pending() {
        let mut q = EventQueue::with_lanes(1);
        q.schedule_in(0, SimTime::from_nanos(7), ());
        assert_eq!(q.pop_until(SimTime::from_nanos(6)), None);
        assert_eq!((q.len(), q.now()), (1, SimTime::ZERO));
        assert!(q.pop_until(SimTime::from_nanos(7)).is_some());
    }

    #[test]
    fn lanes_and_the_heap_pop_what_an_ordered_map_pops() {
        // Random schedules into three lanes and the heap, on a grid of
        // four instants ahead of the clock or of the lane's last key, so
        // lanes see out-of-order keys and equal times meet across lanes
        // and the heap; random pops,
        // some bounded by an end. After every step the queue agrees with
        // an ordered map of `(time, seq)` keys on what pops, `peek_time`,
        // `len` and which lanes are empty.
        const LANES: usize = 3;
        let mut q = EventQueue::with_lanes(LANES);
        // (time, seq) → the lane it went to, `None` for the heap.
        let mut model = std::collections::BTreeMap::new();
        let mut last = [SimTime::ZERO; LANES];
        let mut in_lane = [0usize; LANES];
        let mut rng = dmc_stats::rng::Xoshiro256::seed_from_u64(40);
        let (mut seq, mut fallbacks, mut appends, mut ties) = (0u64, 0, 0, 0);
        let mut popped_last: Option<(SimTime, Option<usize>)> = None;
        let mut most_pending = 0;
        for step in 0..20_000 {
            let roll = rng.next_u64() % 8;
            if roll < 4 {
                let end = match roll {
                    0 => q.now() + SimDuration::from_nanos(rng.next_u64() % 4),
                    _ => SimTime::from_nanos(u64::MAX),
                };
                let expected = model
                    .first_key_value()
                    .filter(|(&(time, _), _)| time <= end)
                    .map(|(&key, &lane)| (key, lane));
                // Each event is its own seq.
                assert_eq!(
                    q.pop_until(end),
                    expected.map(|((time, seq), _)| (time, seq, seq)),
                    "step {step}"
                );
                if let Some(((time, _), lane)) = expected {
                    model.pop_first();
                    if let Some(lane) = lane {
                        in_lane[lane] -= 1;
                    }
                    if let Some((prev, prev_lane)) = popped_last {
                        ties += usize::from(prev == time && prev_lane != lane);
                    }
                    popped_last = Some((time, lane));
                }
            } else {
                let lane = (roll > 4).then(|| (rng.next_u64() % LANES as u64) as usize);
                // Half the lane keys follow the lane's last one, as a
                // constant-delay link's arrivals do.
                let from = match lane {
                    Some(lane) if rng.next_u64() % 2 == 0 => last[lane].max(q.now()),
                    _ => q.now(),
                };
                let at = from + SimDuration::from_nanos(rng.next_u64() % 4);
                let heaped = q.heap.len();
                let went = match lane {
                    None => {
                        q.schedule(at, seq);
                        None
                    }
                    Some(lane) => {
                        q.schedule_in(lane, at, seq);
                        if in_lane[lane] > 0 && at < last[lane] {
                            fallbacks += 1;
                            None
                        } else {
                            appends += 1;
                            in_lane[lane] += 1;
                            last[lane] = at;
                            Some(lane)
                        }
                    }
                };
                assert_eq!(q.heap.len(), heaped + usize::from(went.is_none()));
                model.insert((at, seq), went);
                seq += 1;
            }
            assert_eq!(q.peek_time(), model.keys().next().map(|&(time, _)| time));
            assert_eq!(q.len(), model.len());
            most_pending = most_pending.max(model.len());
            for (lane, &n) in in_lane.iter().enumerate() {
                assert_eq!(q.lane_is_empty(lane), n == 0, "step {step}");
                assert_eq!(q.lanes[lane].len(), n, "step {step}");
            }
        }
        assert!(fallbacks > 1_000, "{fallbacks} out-of-order lane keys");
        assert!(appends > 2_000, "{appends} lane appends");
        assert!(ties > 1_000, "{ties} equal times popped across places");
        // A slot is added only when none is free.
        assert_eq!(q.slab.len(), most_pending, "slots are reused");
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

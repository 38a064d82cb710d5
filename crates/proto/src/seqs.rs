//! Per-message endpoint state keyed by sequence number.
//!
//! The sender hands out sequence numbers densely from 0, so both
//! endpoints index their per-message state by `seq` rather than hashing
//! it:
//!
//! * [`SeqSet`] — the receiver's record of every seq it has seen: one
//!   bit per seq in a dense bitset, plus an ordered overflow for seqs far
//!   beyond it, so a lying header such as `seq = u64::MAX` costs one
//!   overflow entry rather than a bitset reaching that far;
//! * [`SeqWindow`] — the sender's in-flight messages, and per path its
//!   outstanding transmissions by send index (dense from 0 too): a ring
//!   of slots indexed by `seq − base`, `base` being the oldest seq the
//!   ring still covers, plus an ordered overflow for entries the ring
//!   would have to stretch too far to hold (a message whose stage arms
//!   no timer can stay in flight indefinitely).
//!
//! The sender also keeps a [`SeqSet`]: the seqs its acks have named.
//!
//! Both keep their storage proportional to what they hold: the set to
//! the distinct seqs it has seen, the window to its live entries.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Bitset words a [`SeqSet`] may hold beyond one per distinct seq: the
/// first 16 Ki seqs stay dense however out of order they arrive.
const SET_SLACK_WORDS: usize = 256;

/// Slots a [`SeqWindow`] may hold beyond [`WINDOW_SLOTS_PER_ENTRY`] per
/// entry in its ring.
const WINDOW_SLACK_SLOTS: usize = 256;

/// The ring's length bound per live entry. In steady state the ring
/// spans the longest time a message stays in flight, so a quarter of its
/// slots live is well below anything the paper's scenarios reach.
const WINDOW_SLOTS_PER_ENTRY: usize = 4;

/// A set of sequence numbers: a bitset over `[0, 64·words)` plus an
/// ordered overflow for the seqs at or beyond its end.
#[derive(Debug, Default)]
pub(crate) struct SeqSet {
    words: Vec<u64>,
    /// Members at or beyond `64 · words.len()`.
    overflow: BTreeSet<u64>,
    len: usize,
}

impl SeqSet {
    /// Distinct seqs inserted.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    fn dense_end(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Whether `seq` was inserted.
    #[cfg(test)]
    fn contains(&self, seq: u64) -> bool {
        match usize::try_from(seq / 64)
            .ok()
            .and_then(|w| self.words.get(w))
        {
            Some(word) => (word >> (seq % 64)) & 1 == 1,
            None => self.overflow.contains(&seq),
        }
    }

    /// Inserts `seq`; `true` if it was not a member yet.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let w = seq / 64;
        if w >= self.words.len() as u64 {
            // The bitset grows only as far as one word per distinct seq
            // (plus slack) pays for; a seq further out waits in overflow
            // until the bitset reaches it.
            if w >= (self.len + SET_SLACK_WORDS) as u64 {
                let fresh = self.overflow.insert(seq);
                self.len += usize::from(fresh);
                return fresh;
            }
            self.grow(w as usize + 1);
        }
        let bit = 1u64 << (seq % 64);
        let word = &mut self.words[w as usize];
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Extends the bitset to `words` words and moves the overflow seqs it
    /// now covers into it.
    fn grow(&mut self, words: usize) {
        self.words.resize(words, 0);
        let end = self.dense_end();
        if self.overflow.first().is_some_and(|&seq| seq < end) {
            let beyond = self.overflow.split_off(&end);
            for seq in std::mem::replace(&mut self.overflow, beyond) {
                self.words[(seq / 64) as usize] |= 1 << (seq % 64);
            }
        }
    }

    /// The members in `[start, start + 128)` as bits: bit `i` is set iff
    /// `start + i` is a member. Offsets past `u64::MAX` read 0.
    pub(crate) fn window(&self, start: u64) -> u128 {
        let word = |i: u64| {
            usize::try_from(i)
                .ok()
                .and_then(|i| self.words.get(i))
                .copied()
                .map_or(0, u128::from)
        };
        let first = start / 64;
        let shift = start % 64;
        let mut bits = (word(first) | (word(first + 1) << 64)) >> shift;
        if shift > 0 {
            bits |= word(first + 2) << (128 - shift);
        }
        let last = start.saturating_add(127);
        if last >= self.dense_end() {
            for &seq in self.overflow.range(start..=last) {
                bits |= 1 << (seq - start);
            }
        }
        bits
    }

    /// `(bitset words, overflow entries)`: what the set stores.
    #[cfg(test)]
    fn footprint(&self) -> (usize, usize) {
        (self.words.len(), self.overflow.len())
    }
}

/// The most slots a ring holding `entries` entries may span.
fn ring_bound(entries: usize) -> usize {
    WINDOW_SLOTS_PER_ENTRY * entries + WINDOW_SLACK_SLOTS
}

/// A map from sequence number to `T`: a ring of slots over
/// `[base, base + slots)` plus an ordered map for the entries outside it.
#[derive(Debug)]
pub(crate) struct SeqWindow<T> {
    /// The seq of `slots[0]`; when the ring is not empty its first slot
    /// is occupied.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    in_ring: usize,
    /// Entries outside `[base, base + slots.len())`.
    outside: BTreeMap<u64, T>,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            in_ring: 0,
            outside: BTreeMap::new(),
        }
    }
}

impl<T> SeqWindow<T> {
    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.in_ring + self.outside.len()
    }

    /// The ring index of `seq`, if the ring covers it.
    fn slot(&self, seq: u64) -> Option<usize> {
        let off = seq.wrapping_sub(self.base);
        (off < self.slots.len() as u64).then_some(off as usize)
    }

    /// The entry under `seq`.
    pub(crate) fn get(&self, seq: u64) -> Option<&T> {
        match self.slot(seq) {
            Some(i) => self.slots[i].as_ref(),
            None => self.outside.get(&seq),
        }
    }

    /// The entry under `seq`, mutably.
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        match self.slot(seq) {
            Some(i) => self.slots[i].as_mut(),
            None => self.outside.get_mut(&seq),
        }
    }

    /// Puts `value` under `seq`; returns the entry it replaced.
    pub(crate) fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if let Some(i) = self.slot(seq) {
            let old = self.slots[i].replace(value);
            self.in_ring += usize::from(old.is_none());
            return old;
        }
        if let Some(old) = self.outside.get_mut(&seq) {
            return Some(std::mem::replace(old, value));
        }
        if self.slots.is_empty() {
            self.base = seq;
            self.slots.push_back(Some(value));
            self.in_ring = 1;
            return None;
        }
        // A new seq past the ring's end is appended when the ring may
        // stretch that far; one below it (whose offset wraps), or too far
        // out, stays outside.
        let off = seq.wrapping_sub(self.base);
        if seq < self.base || off >= ring_bound(self.in_ring + 1) as u64 {
            self.outside.insert(seq, value);
            return None;
        }
        let end = self.base + self.slots.len() as u64;
        self.slots.resize_with(off as usize, || None);
        self.slots.push_back(Some(value));
        self.in_ring += 1;
        // Entries kept outside that the ring now covers move into it.
        if self.outside.range(end..seq).next().is_some() {
            let mut covered = self.outside.split_off(&end);
            let mut beyond = covered.split_off(&seq);
            self.outside.append(&mut beyond);
            for (seq, value) in covered {
                self.slots[(seq - self.base) as usize] = Some(value);
                self.in_ring += 1;
            }
        }
        None
    }

    /// Removes and returns the entry under `seq`.
    pub(crate) fn remove(&mut self, seq: u64) -> Option<T> {
        let Some(i) = self.slot(seq) else {
            return self.outside.remove(&seq);
        };
        let value = self.slots[i].take()?;
        self.in_ring -= 1;
        self.trim();
        Some(value)
    }

    /// The entries under keys below `bound`, in ascending key order: the
    /// outside entries below the ring, the ring's occupied slots, then
    /// the outside entries past its end.
    pub(crate) fn below(&self, bound: u64) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        let ring_end = base.saturating_add(self.slots.len() as u64);
        let in_ring = bound.saturating_sub(base).min(self.slots.len() as u64) as usize;
        let before = self.outside.range(..bound.min(base));
        let ring = self.slots.range(..in_ring).enumerate();
        let after = self.outside.range(ring_end.min(bound)..bound);
        before
            .map(|(&seq, value)| (seq, value))
            .chain(ring.filter_map(move |(i, slot)| Some((base + i as u64, slot.as_ref()?))))
            .chain(after.map(|(&seq, value)| (seq, value)))
    }

    /// Pops empty slots off the ring's front, and moves its oldest
    /// entries outside while the ring is longer than its bound: a
    /// message that never leaves must not pin a ring over every seq sent
    /// after it.
    fn trim(&mut self) {
        while let Some(front) = self.slots.front() {
            if front.is_some() && self.slots.len() <= ring_bound(self.in_ring) {
                return;
            }
            if let Some(Some(value)) = self.slots.pop_front() {
                self.outside.insert(self.base, value);
                self.in_ring -= 1;
            }
            self.base = self.base.wrapping_add(1);
        }
    }

    /// `(ring slots, entries outside)`: what the window stores.
    #[cfg(test)]
    fn footprint(&self) -> (usize, usize) {
        (self.slots.len(), self.outside.len())
    }
}

#[cfg(test)]
mod tests {
    //! Seeded operation scripts through both structures, each held to an
    //! ordered model (`BTreeSet` / `BTreeMap`) after every step: every
    //! answer must match, and the storage must stay within its bound.

    use super::*;
    use dmc_stats::rng::SplitMix64;

    /// Headers no honest sender writes.
    const LIES: [u64; 5] = [
        1 << 40,
        (1 << 40) + 63,
        u64::MAX - 127,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// How seqs reach the receiver in a script.
    #[derive(Clone, Copy, Debug)]
    enum Arrivals {
        InOrder,
        /// Each seq is held back by up to this many positions.
        Reordered(u64),
        /// Table III's shape: 80 % of the seqs take a path ~4 400 seqs
        /// slower (400 ms at ~11 k msg/s), a fifth of those are lost.
        TwoPaths,
    }

    /// `n` seqs in arrival order, with duplicates and lying seqs mixed in.
    fn arrivals(rng: &mut SplitMix64, n: u64, how: Arrivals) -> Vec<u64> {
        let mut keyed: Vec<(u64, u64)> = Vec::new();
        for seq in 0..n {
            let at = match how {
                Arrivals::InOrder => seq,
                Arrivals::Reordered(by) => seq + rng.int(0u64..by + 1),
                Arrivals::TwoPaths => {
                    if rng.int(0u64..1000) < 800 {
                        if rng.int(0u64..1000) < 200 {
                            continue;
                        }
                        seq + 4_400 + rng.int(0u64..200)
                    } else {
                        seq + rng.int(0u64..50)
                    }
                }
            };
            keyed.push((at, seq));
        }
        keyed.sort_unstable();
        let mut out = Vec::with_capacity(keyed.len());
        for (i, &(_, seq)) in keyed.iter().enumerate() {
            out.push(seq);
            if rng.int(0u64..1000) < 50 {
                // A duplicate of a recent or an old arrival.
                let back = if rng.int(0u64..1000) < 500 {
                    20
                } else {
                    i as u64 + 1
                };
                out.push(keyed[i - rng.int(0u64..back.min(i as u64 + 1)) as usize].1);
            }
            if rng.int(0u64..1000) < 2 {
                out.push(LIES[rng.int(0u64..LIES.len() as u64) as usize]);
            }
            if rng.int(0u64..1000) < 1 {
                out.push(rng.next_u64());
            }
        }
        out
    }

    /// The model's bits for `[start, start + 128)`.
    fn model_window(model: &BTreeSet<u64>, start: u64) -> u128 {
        model
            .range(start..=start.saturating_add(127))
            .fold(0, |bits, &seq| bits | 1 << (seq - start))
    }

    fn check_set_bound(set: &SeqSet) {
        let (words, overflow) = set.footprint();
        assert!(
            words <= set.len() + SET_SLACK_WORDS,
            "{words} bitset words for {} seqs",
            set.len()
        );
        assert!(overflow <= set.len());
    }

    fn run_set_script(seed: u64, n: u64, how: Arrivals) {
        let mut rng = SplitMix64::new(seed);
        let script = arrivals(&mut rng, n, how);
        let mut set = SeqSet::default();
        let mut model = BTreeSet::new();
        let mut highest = 0u64;
        for (step, &seq) in script.iter().enumerate() {
            let at = format!("seed {seed} {how:?} step {step} seq {seq}");
            assert_eq!(set.insert(seq), model.insert(seq), "insert: {at}");
            assert_eq!(set.len(), model.len(), "len: {at}");
            highest = highest.max(seq);
            // The receiver's ack window, and one somewhere below it.
            for start in [highest.saturating_sub(127), rng.int(0u64..highest.max(1))] {
                assert_eq!(
                    set.window(start),
                    model_window(&model, start),
                    "window at {start}: {at}"
                );
            }
            for probe in [seq, seq ^ 1, rng.int(0u64..n + 64), LIES[step % LIES.len()]] {
                assert_eq!(
                    set.contains(probe),
                    model.contains(&probe),
                    "contains {probe}: {at}"
                );
            }
            check_set_bound(&set);
        }
        for &seq in &model {
            assert!(set.contains(seq), "lost {seq}: seed {seed} {how:?}");
        }
    }

    #[test]
    fn seq_set_matches_an_ordered_set() {
        for seed in 1..=3 {
            run_set_script(seed, 20_000, Arrivals::InOrder);
            run_set_script(seed, 20_000, Arrivals::Reordered(10_000));
            run_set_script(seed, 20_000, Arrivals::Reordered(300));
            run_set_script(seed, 20_000, Arrivals::TwoPaths);
        }
    }

    #[test]
    fn a_lying_seq_costs_one_overflow_entry() {
        let mut set = SeqSet::default();
        assert!(set.insert(u64::MAX));
        assert!(!set.insert(u64::MAX));
        assert_eq!(set.footprint(), (0, 1));
        assert_eq!(set.window(u64::MAX - 127), 1 << 127);
        assert_eq!(set.window(u64::MAX), 1);
        assert!(set.insert(1 << 40));
        assert_eq!(set.footprint(), (0, 2));
        for seq in 0..1_000 {
            set.insert(seq);
        }
        assert_eq!(set.footprint(), (16, 2));
        assert_eq!(set.window(900), (1 << 100) - 1);
    }

    #[test]
    fn the_bitset_takes_in_the_overflow_it_reaches() {
        // Seq 20 000 arrives first, past the slack: it waits in overflow
        // and moves into the bitset once the arrivals before it reach it.
        let mut set = SeqSet::default();
        assert!(set.insert(20_000));
        assert_eq!(set.footprint(), (0, 1));
        for seq in 0..20_000 {
            assert!(set.insert(seq));
        }
        assert_eq!(set.footprint().1, 0);
        assert!(set.contains(20_000));
        assert!(!set.insert(20_000));
        assert_eq!(set.window(19_990), (1 << 11) - 1);
    }

    /// Script steps after which the window held overflow entries below
    /// its ring, past its end, and on both sides of a non-empty ring.
    #[derive(Debug, Default)]
    struct Reached {
        outside_below: usize,
        outside_after: usize,
        outside_both: usize,
    }

    /// A sender-shaped script against `BTreeMap`: new seqs handed out in
    /// order (some never sent), retransmissions replacing live entries,
    /// acks out of order by up to `reorder`, detect-only expiries of the
    /// oldest, messages whose stage arms no timer and which therefore
    /// never leave, and lying seqs from forged acks.
    ///
    /// With `walk`, every step also holds [`SeqWindow::below`] to the
    /// model (see [`check_below`]).
    fn run_window_script(
        seed: u64,
        steps: usize,
        reorder: u64,
        stuck_per_mille: u64,
        walk: bool,
    ) -> Reached {
        let mut rng = SplitMix64::new(seed);
        let mut reached = Reached::default();
        let mut window = SeqWindow::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut stuck: BTreeSet<u64> = BTreeSet::new();
        let mut next = 0u64;
        for step in 0..steps {
            let at = format!("seed {seed} reorder {reorder} step {step}");
            let roll = rng.int(0u64..100);
            if roll < 40 {
                // Generate: blackholed at source now and then.
                let seq = next;
                next += 1;
                if rng.int(0u64..1000) < 70 {
                    assert_eq!(window.remove(seq), model.remove(&seq), "blackhole: {at}");
                } else {
                    let value = rng.next_u64();
                    assert_eq!(
                        window.insert(seq, value),
                        model.insert(seq, value),
                        "send {seq}: {at}"
                    );
                    if rng.int(0u64..1000) < stuck_per_mille {
                        stuck.insert(seq);
                    }
                }
            } else if roll < 50 {
                // Retransmit a live message: its record is replaced.
                let from = next.saturating_sub(reorder + 1);
                let pick = from + rng.int(0u64..next - from + 1);
                if let Some((&seq, _)) = model.range(pick..).next() {
                    let value = rng.next_u64();
                    assert_eq!(
                        window.insert(seq, value),
                        model.insert(seq, value),
                        "retransmit {seq}: {at}"
                    );
                }
            } else if roll < 85 {
                // An ack: some seq up to `reorder` behind the newest.
                let seq = next.saturating_sub(1 + rng.int(0u64..reorder + 1));
                if !stuck.contains(&seq) {
                    assert_eq!(window.remove(seq), model.remove(&seq), "ack {seq}: {at}");
                }
            } else if roll < 90 {
                // Detect-only expiries: the oldest message with a timer,
                // and every other one more than `reorder` seqs old.
                let old = next.saturating_sub(reorder);
                let expired: Vec<u64> = model
                    .keys()
                    .filter(|seq| !stuck.contains(seq))
                    .enumerate()
                    .take_while(|&(i, &seq)| i == 0 || seq < old)
                    .map(|(_, &seq)| seq)
                    .collect();
                for seq in expired {
                    assert_eq!(window.remove(seq), model.remove(&seq), "expire {seq}: {at}");
                }
            } else if roll < 95 {
                // A fast-retransmit duplicate indication.
                let seq = next.saturating_sub(1 + rng.int(0u64..reorder + 1));
                if let Some(v) = window.get_mut(seq) {
                    *v = v.wrapping_add(1);
                }
                if let Some(v) = model.get_mut(&seq) {
                    *v = v.wrapping_add(1);
                }
            } else {
                // A forged ack or header: lookups, removals and — though
                // no sender writes one — an insert of a lying seq.
                let lie = match rng.int(0u64..3) {
                    0 => LIES[rng.int(0u64..LIES.len() as u64) as usize],
                    // Just past the newest seq: the ring reaches it later.
                    1 => next + rng.int(0u64..5_000),
                    _ => rng.next_u64(),
                };
                assert_eq!(window.get(lie), model.get(&lie), "get lie {lie}: {at}");
                if rng.int(0u64..1000) < 500 {
                    assert_eq!(window.remove(lie), model.remove(&lie), "remove {lie}: {at}");
                } else {
                    assert_eq!(
                        window.insert(lie, 7),
                        model.insert(lie, 7),
                        "insert {lie}: {at}"
                    );
                    stuck.insert(lie);
                }
            }
            assert_eq!(window.len(), model.len(), "len: {at}");
            for probe in [
                next.saturating_sub(1),
                rng.int(0u64..next + 1),
                LIES[step % LIES.len()],
            ] {
                assert_eq!(window.get(probe), model.get(&probe), "get {probe}: {at}");
            }
            let (slots, outside) = window.footprint();
            assert!(
                slots <= ring_bound(window.len()),
                "{slots} ring slots for {} entries: {at}",
                window.len()
            );
            assert!(outside <= window.len());
            if walk {
                check_below(&window, &model, &mut rng, step, &mut reached, &at);
            }
        }
        for (&seq, value) in &model {
            assert_eq!(window.get(seq), Some(value), "seed {seed}: entry {seq}");
        }
        reached
    }

    /// Holds [`SeqWindow::below`] to the model's `range(..bound)` for two
    /// bounds, taking turns over: below the ring, at its base, inside it,
    /// at and past its end, and the extremes. Tallies where the window
    /// held overflow entries.
    fn check_below(
        window: &SeqWindow<u64>,
        model: &BTreeMap<u64, u64>,
        rng: &mut SplitMix64,
        step: usize,
        reached: &mut Reached,
        at: &str,
    ) {
        let base = window.base;
        let end = base.saturating_add(window.slots.len() as u64);
        let bounds = [
            0,
            base.saturating_sub(1 + rng.int(0u64..64)),
            base,
            base.saturating_add(rng.int(0u64..window.slots.len() as u64 + 1)),
            end,
            end.saturating_add(rng.int(0u64..6_000)),
            u64::MAX,
        ];
        for bound in [bounds[step % 7], bounds[(step + 3) % 7]] {
            let walked = window.below(bound).map(|(k, &v)| (k, v));
            assert!(
                walked.eq(model.range(..bound).map(|(&k, &v)| (k, v))),
                "below {bound} (ring {base}..{end}): {at}"
            );
        }
        let outside_below = window.outside.range(..base).next().is_some();
        let outside_after = window.outside.range(end..).next().is_some();
        reached.outside_below += usize::from(outside_below);
        reached.outside_after += usize::from(outside_after);
        reached.outside_both += usize::from(outside_below && outside_after && window.in_ring > 0);
    }

    #[test]
    fn seq_window_matches_an_ordered_map() {
        for seed in 1..=4 {
            run_window_script(seed, 30_000, 200, 0, false);
            run_window_script(seed, 30_000, 10_000, 0, false);
            run_window_script(seed, 30_000, 200, 5, false);
            run_window_script(seed, 30_000, 10_000, 5, false);
        }
    }

    #[test]
    fn the_walk_below_a_bound_matches_the_ordered_range() {
        // Stuck messages leave entries outside below the ring, lying seqs
        // just past the newest leave them outside past its end.
        let mut both = 0;
        for seed in 1..=3 {
            for (reorder, stuck) in [(200, 20), (500, 20), (200, 0)] {
                let reached = run_window_script(seed, 8_000, reorder, stuck, true);
                if stuck > 0 {
                    assert!(
                        reached.outside_below > 0 && reached.outside_after > 0,
                        "seed {seed} reorder {reorder}: {reached:?}"
                    );
                }
                both += reached.outside_both;
            }
        }
        assert!(both > 0, "no step held overflow on both sides of the ring");
    }

    #[test]
    fn a_message_that_never_leaves_does_not_pin_the_ring() {
        // Seq 0's stage armed no timer and its ack never comes; a
        // million messages later the ring holds the live tail only.
        let mut window = SeqWindow::default();
        window.insert(0, ());
        for seq in 1..1_000_000u64 {
            window.insert(seq, ());
            if seq > 10 {
                window.remove(seq - 10);
            }
        }
        assert_eq!(window.len(), 11);
        let (slots, outside) = window.footprint();
        assert_eq!(outside, 1);
        assert!(slots <= ring_bound(10), "{slots} slots");
        assert_eq!(window.get(0), Some(&()));
        assert_eq!(window.remove(0), Some(()));
        assert_eq!(window.len(), 10);
    }
}

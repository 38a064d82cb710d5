//! Path-combination index algebra (paper Eq. 13, generalized).
//!
//! A *path combination* is the ordered sequence of paths a piece of data
//! is sent along: the initial transmission followed by the (potential)
//! retransmissions. With `m` transmissions over `s` slots (real paths
//! plus, optionally, the blackhole), there are `s^m` combinations.
//!
//! Combinations are numbered like the paper's vectorization: index `l`
//! encodes the stage-`k` slot as the `k`-th base-`s` digit,
//! **least-significant digit = first transmission** (Eq. 13:
//! `i = l mod n`, `j = ⌊l/n⌋`).

use crate::path::SpecError;

/// One transmission slot: the blackhole (drop) or a real path.
///
/// Real paths are identified by their 0-based index into
/// [`NetworkSpec::paths`](crate::NetworkSpec::paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// The virtual "blackhole" path of Eq. 19: sending here discards the
    /// data (`τ = 1`, `d = ∞`, `c = 0`, unconstrained bandwidth — see
    /// DESIGN.md deviation 1).
    Blackhole,
    /// A real path, 0-based.
    Path(usize),
}

impl Slot {
    /// The paper's display index: 0 for the blackhole, `i + 1` for real
    /// path `i` (Table IV's `x0,0`, `x1,2`, … notation).
    pub fn display_index(&self) -> usize {
        match self {
            Slot::Blackhole => 0,
            Slot::Path(i) => i + 1,
        }
    }
}

/// The combination table for a scenario: bijection between combination
/// indices `0..num_combos()` and stage sequences `[Slot; m]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComboTable {
    /// Number of real paths.
    n_paths: usize,
    /// Whether slot digit 0 is the blackhole.
    blackhole: bool,
    /// Number of transmissions per combination (`m ≥ 1`;
    /// `m − 1` retransmissions).
    transmissions: usize,
}

impl ComboTable {
    /// Largest combination count any planner will model. The count is
    /// `num_slots ^ transmissions`, so an unchecked `m` can exhaust memory
    /// or overflow the count itself; every table, single-flow or fleet,
    /// is held to this one bound.
    pub const MAX_COMBOS: usize = 1 << 16;

    /// `(n_paths + blackhole) ^ transmissions` when it neither overflows
    /// nor exceeds [`ComboTable::MAX_COMBOS`].
    pub fn checked_num_combos(
        n_paths: usize,
        transmissions: usize,
        blackhole: bool,
    ) -> Option<usize> {
        let m = u32::try_from(transmissions).ok()?;
        (n_paths + usize::from(blackhole))
            .checked_pow(m)
            .filter(|&combos| combos <= Self::MAX_COMBOS)
    }

    /// Creates the table for `n_paths` real paths and `transmissions`
    /// stages, optionally including the blackhole slot.
    ///
    /// # Panics
    ///
    /// Panics if `n_paths == 0`, `transmissions == 0`, or the combination
    /// count exceeds [`ComboTable::MAX_COMBOS`].
    pub fn new(n_paths: usize, transmissions: usize, blackhole: bool) -> Self {
        assert!(n_paths > 0, "need at least one path");
        assert!(transmissions > 0, "need at least one transmission");
        assert!(
            Self::checked_num_combos(n_paths, transmissions, blackhole).is_some(),
            "combination count exceeds ComboTable::MAX_COMBOS"
        );
        ComboTable {
            n_paths,
            blackhole,
            transmissions,
        }
    }

    /// Number of slot values per stage (`n` or `n + 1`).
    pub fn num_slots(&self) -> usize {
        self.n_paths + usize::from(self.blackhole)
    }

    /// Number of real paths.
    pub fn num_paths(&self) -> usize {
        self.n_paths
    }

    /// Number of transmissions `m`.
    pub fn transmissions(&self) -> usize {
        self.transmissions
    }

    /// Whether the blackhole slot exists.
    pub fn has_blackhole(&self) -> bool {
        self.blackhole
    }

    /// Total number of combinations (`num_slots ^ m`), i.e. the LP's
    /// variable count.
    pub fn num_combos(&self) -> usize {
        self.num_slots().pow(self.transmissions as u32)
    }

    fn digit_to_slot(&self, digit: usize) -> Slot {
        if self.blackhole {
            if digit == 0 {
                Slot::Blackhole
            } else {
                Slot::Path(digit - 1)
            }
        } else {
            Slot::Path(digit)
        }
    }

    fn slot_to_digit(&self, slot: Slot) -> Option<usize> {
        match (slot, self.blackhole) {
            (Slot::Blackhole, true) => Some(0),
            (Slot::Blackhole, false) => None,
            (Slot::Path(i), bh) => {
                if i < self.n_paths {
                    Some(i + usize::from(bh))
                } else {
                    None
                }
            }
        }
    }

    /// Combination `l`'s slots, first transmission first: its
    /// base-`num_slots()` digits, least significant first.
    ///
    /// # Panics
    ///
    /// Panics if `l ≥ num_combos()`.
    fn stages(&self, l: usize) -> impl Iterator<Item = Slot> + '_ {
        assert!(l < self.num_combos(), "combo index {l} out of range");
        let base = self.num_slots();
        let mut rest = l;
        (0..self.transmissions).map(move |_| {
            let digit = rest % base;
            rest /= base;
            self.digit_to_slot(digit)
        })
    }

    /// The slot of stage `stage` of combination `l` (stage 0 = first
    /// transmission), or `None` past the last transmission.
    ///
    /// # Panics
    ///
    /// Panics if `l ≥ num_combos()`.
    #[inline]
    pub fn slot_at(&self, l: usize, stage: usize) -> Option<Slot> {
        self.stages(l).nth(stage)
    }

    /// Decodes combination index `l` into its stage sequence
    /// (`result[0]` = first transmission).
    ///
    /// # Panics
    ///
    /// Panics if `l ≥ num_combos()`.
    pub fn slots_of(&self, l: usize) -> Vec<Slot> {
        self.stages(l).collect()
    }

    /// Encodes a stage sequence into its combination index.
    ///
    /// Returns `None` if the sequence length differs from
    /// `transmissions()` or a slot does not exist in this table.
    pub fn index_of(&self, slots: &[Slot]) -> Option<usize> {
        if slots.len() != self.transmissions {
            return None;
        }
        let base = self.num_slots();
        let mut l = 0;
        for (stage, &slot) in slots.iter().enumerate().rev() {
            let digit = self.slot_to_digit(slot)?;
            l = l * base + digit;
            let _ = stage;
        }
        Some(l)
    }

    /// Iterates over all `(index, slots)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Vec<Slot>)> + '_ {
        (0..self.num_combos()).map(move |l| (l, self.slots_of(l)))
    }

    /// Formats a combination the way the paper writes Table IV columns:
    /// `x1,2` for "path 1 then path 2".
    pub fn label(&self, l: usize) -> String {
        let parts: Vec<String> = self
            .slots_of(l)
            .iter()
            .map(|s| s.display_index().to_string())
            .collect();
        format!("x{}", parts.join(","))
    }
}

/// The typed form of [`ComboTable::new`]'s size bound, for scenarios that
/// reach a planner from outside the program.
pub(crate) fn check_combos(
    n_paths: usize,
    transmissions: usize,
    blackhole: bool,
) -> Result<(), SpecError> {
    match ComboTable::checked_num_combos(n_paths, transmissions, blackhole) {
        Some(_) => Ok(()),
        None => Err(SpecError(format!(
            "{transmissions} transmissions over {n_paths} paths need more than {} path \
             combinations",
            ComboTable::MAX_COMBOS
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq13_two_paths_with_blackhole() {
        // n=2 real + blackhole → 3 slots, m=2 → 9 combos.
        let t = ComboTable::new(2, 2, true);
        assert_eq!(t.num_combos(), 9);
        // l = i + n·j with i the first transmission (Eq. 13).
        // l = 5 → i = 5 mod 3 = 2 (path index 1), j = 1 (path index 0).
        assert_eq!(t.slots_of(5), vec![Slot::Path(1), Slot::Path(0)]);
        assert_eq!(t.index_of(&[Slot::Path(1), Slot::Path(0)]), Some(5));
        // l = 0 → blackhole twice (the paper's x0,0).
        assert_eq!(t.slots_of(0), vec![Slot::Blackhole, Slot::Blackhole]);
        assert_eq!(t.label(0), "x0,0");
        // Paper's x1,2: path 1 (display) then path 2 (display)
        // = Slot::Path(0) then Slot::Path(1) → l = 1 + 3·2 = 7.
        assert_eq!(t.index_of(&[Slot::Path(0), Slot::Path(1)]), Some(7));
        assert_eq!(t.label(7), "x1,2");
    }

    #[test]
    fn round_trip_all_indices() {
        for (n, m, bh) in [(1, 1, true), (2, 2, true), (3, 3, false), (4, 2, true)] {
            let t = ComboTable::new(n, m, bh);
            for l in 0..t.num_combos() {
                let slots = t.slots_of(l);
                assert_eq!(slots.len(), m);
                assert_eq!(t.index_of(&slots), Some(l), "n={n} m={m} l={l}");
            }
        }
    }

    #[test]
    fn slot_at_reads_one_digit_of_slots_of() {
        // Table III and Table V both have two paths; the planner adds the
        // blackhole, and the tables without it are checked as well.
        for m in 1..=3 {
            for blackhole in [true, false] {
                let t = ComboTable::new(2, m, blackhole);
                for l in 0..t.num_combos() {
                    let slots = t.slots_of(l);
                    for stage in 0..=m + 1 {
                        assert_eq!(t.slot_at(l, stage), slots.get(stage).copied());
                    }
                }
            }
        }
    }

    #[test]
    fn without_blackhole_digit_zero_is_path_zero() {
        let t = ComboTable::new(2, 2, false);
        assert_eq!(t.num_combos(), 4);
        assert_eq!(t.slots_of(0), vec![Slot::Path(0), Slot::Path(0)]);
        assert_eq!(t.index_of(&[Slot::Blackhole, Slot::Path(0)]), None);
    }

    #[test]
    fn index_of_rejects_bad_input() {
        let t = ComboTable::new(2, 2, true);
        assert_eq!(t.index_of(&[Slot::Path(0)]), None); // wrong length
        assert_eq!(t.index_of(&[Slot::Path(5), Slot::Path(0)]), None); // bad path
    }

    #[test]
    fn display_indices() {
        assert_eq!(Slot::Blackhole.display_index(), 0);
        assert_eq!(Slot::Path(0).display_index(), 1);
        assert_eq!(Slot::Path(6).display_index(), 7);
    }

    #[test]
    fn combo_count_growth() {
        // Fig. 4's x-axis: for n paths + blackhole and m transmissions the
        // variable count is (n+1)^m.
        assert_eq!(ComboTable::new(10, 2, true).num_combos(), 121);
        assert_eq!(ComboTable::new(10, 3, true).num_combos(), 1331);
    }

    #[test]
    fn oversized_counts_are_refused_not_computed() {
        assert_eq!(ComboTable::checked_num_combos(2, 2, true), Some(9));
        assert_eq!(ComboTable::checked_num_combos(255, 2, true), Some(1 << 16));
        assert_eq!(ComboTable::checked_num_combos(2, 24, true), None); // 3^24 > 2^16
        assert_eq!(ComboTable::checked_num_combos(2, 255, true), None); // overflows usize
        assert_eq!(ComboTable::checked_num_combos(2, usize::MAX, true), None);
        assert!(check_combos(2, 3, true).is_ok());
        assert!(check_combos(2, 24, true).is_err());
    }

    #[test]
    fn iter_visits_everything_once() {
        let t = ComboTable::new(3, 2, true);
        let seen: Vec<usize> = t.iter().map(|(l, _)| l).collect();
        assert_eq!(seen.len(), 16);
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }
}

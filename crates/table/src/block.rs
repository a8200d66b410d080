//! Batched evaluation of a schedule table over a block of track labels.
//!
//! Requirements 1–4 and `δ_max` are properties of the table on *every*
//! alternative path. Asking [`ScheduleTable::activation`] once per path
//! rescans a job's row once per path; a [`LabelBlock`] lets
//! [`ScheduleTable::resolve_block`] resolve the row for up to
//! [`LabelBlock::WIDTH`] labels in one pass.
//!
//! The block holds one `u64` mask per condition literal: bit `t` is set when
//! label `t` contains the literal. The labels satisfying a column are then
//! the AND of its literals' masks, and the labels on which a guard holds are
//! the OR of that over the guard's cubes.

use cpg::{CondId, Cube, Guard, MAX_CONDITIONS};
use cpg_arch::{PeId, Time};

use crate::ScheduleTable;

/// Up to [`LabelBlock::WIDTH`] labels (complete condition assignments of
/// alternative paths), stored as one bit mask per condition literal.
///
/// # Example
///
/// ```
/// use cpg::{CondId, Cube, Guard};
/// use cpg_table::LabelBlock;
///
/// let (c, d) = (CondId::new(0), CondId::new(1));
/// let labels: Vec<Cube> = vec![
///     [c.is_true(), d.is_true()].into_iter().collect(),
///     [c.is_true(), d.is_false()].into_iter().collect(),
///     Cube::from(c.is_false()),
/// ];
/// let block = LabelBlock::new(&labels);
/// assert_eq!(block.all(), 0b111);
/// assert_eq!(block.satisfying(&Cube::from(c.is_true())), 0b011);
/// assert_eq!(block.satisfying(&Cube::from(d.is_false())), 0b010);
/// assert_eq!(block.mentioning(d), 0b011);
/// let guard = Guard::from_cubes([Cube::from(d.is_true()), Cube::from(c.is_false())]);
/// assert_eq!(block.holding(&guard), 0b101);
/// ```
#[derive(Debug, Clone)]
pub struct LabelBlock {
    len: usize,
    true_masks: [u64; MAX_CONDITIONS],
    false_masks: [u64; MAX_CONDITIONS],
}

impl LabelBlock {
    /// The most labels one block holds: one bit of a `u64` each.
    pub const WIDTH: usize = 64;

    /// Builds the block of `labels`; bit `t` of every mask stands for
    /// `labels[t]`.
    ///
    /// # Panics
    ///
    /// Panics when more than [`LabelBlock::WIDTH`] labels are given.
    #[must_use]
    pub fn new(labels: &[Cube]) -> Self {
        assert!(
            labels.len() <= Self::WIDTH,
            "a label block holds at most {} labels, got {}",
            Self::WIDTH,
            labels.len()
        );
        let mut block = LabelBlock {
            len: labels.len(),
            true_masks: [0; MAX_CONDITIONS],
            false_masks: [0; MAX_CONDITIONS],
        };
        for (t, label) in labels.iter().enumerate() {
            let bit = 1u64 << t;
            for i in bits(label.positive_mask()) {
                block.true_masks[i] |= bit;
            }
            for i in bits(label.negative_mask()) {
                block.false_masks[i] |= bit;
            }
        }
        block
    }

    /// The mask of every label in the block.
    #[must_use]
    pub const fn all(&self) -> u64 {
        if self.len == Self::WIDTH {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }

    /// The labels that imply `column` (satisfy it as complete assignments):
    /// the AND of the masks of its literals.
    #[inline]
    #[must_use]
    pub fn satisfying(&self, column: &Cube) -> u64 {
        let mut mask = self.all();
        for i in bits(column.positive_mask()) {
            mask &= self.true_masks[i];
        }
        for i in bits(column.negative_mask()) {
            mask &= self.false_masks[i];
        }
        mask
    }

    /// The labels on which `guard` holds ([`Guard::implied_by`] the label):
    /// the OR of [`LabelBlock::satisfying`] over the guard's cubes.
    #[must_use]
    pub fn holding(&self, guard: &Guard) -> u64 {
        guard
            .cubes()
            .iter()
            .fold(0, |mask, cube| mask | self.satisfying(cube))
    }

    /// The labels that assign a value to `cond`.
    #[must_use]
    pub fn mentioning(&self, cond: CondId) -> u64 {
        self.true_masks[cond.index()] | self.false_masks[cond.index()]
    }
}

/// The set bits of `mask`, lowest first.
#[inline]
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Sentinel for "no column" and "no resource" in [`ResolvedActivation`].
const NONE: u32 = u32::MAX;

/// The activation of one job on one label of a [`LabelBlock`], as written by
/// [`ScheduleTable::resolve_block`]: the content of
/// [`ScheduleTable::activation`]'s result with the selecting column held by
/// its table-wide index, so a block of them stays small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedActivation {
    pub(crate) time: Time,
    column: u32,
    resource: u32,
}

impl ResolvedActivation {
    /// No applicable activation: no satisfied column, or satisfied columns
    /// with different times.
    pub const NONE: Self = ResolvedActivation {
        time: Time::ZERO,
        column: NONE,
        resource: NONE,
    };

    /// The index in [`ScheduleTable::columns`] of the selecting column, `None`
    /// exactly when [`to_activation`](Self::to_activation) gives `None`.
    /// Callers that memoize per-column facts across activations key them by
    /// it.
    #[must_use]
    pub fn column_index(&self) -> Option<usize> {
        (self.column != NONE).then_some(self.column as usize)
    }

    /// The [`Activation`](crate::Activation) it stands for, its column
    /// looked up in `table` (the table that resolved it); `None` exactly
    /// when [`ScheduleTable::activation`] gives `None`.
    #[must_use]
    pub fn to_activation(&self, table: &ScheduleTable) -> Option<crate::Activation> {
        (self.column != NONE).then(|| crate::Activation {
            time: self.time,
            column: table.columns()[self.column as usize],
            resource: (self.resource != NONE).then(|| PeId::from_index(self.resource as usize)),
        })
    }
}

/// The per-label fold of [`ScheduleTable::resolve_block`], with the rules of
/// [`ScheduleTable::activation`] for entries met in ascending column index:
/// the first satisfied time, a conflict flag, the most specific column (the
/// later one among equals) and the resource of the most specific column
/// carrying one (the earlier one among equals).
pub(crate) struct BlockFold<'a> {
    out: &'a mut [ResolvedActivation],
    found: u64,
    conflict: u64,
    column_len: [u8; LabelBlock::WIDTH],
    resource_len: [u8; LabelBlock::WIDTH],
}

impl<'a> BlockFold<'a> {
    pub(crate) fn new(out: &'a mut [ResolvedActivation]) -> Self {
        BlockFold {
            out,
            found: 0,
            conflict: 0,
            column_len: [0; LabelBlock::WIDTH],
            resource_len: [0; LabelBlock::WIDTH],
        }
    }

    /// Folds the entry `(key, column, time, resource)` into every label of
    /// `labels` (all of which satisfy the column).
    #[inline]
    pub(crate) fn note(
        &mut self,
        labels: u64,
        key: u32,
        column: &Cube,
        time: Time,
        resource: Option<PeId>,
    ) {
        let specificity = column.len() as u8;
        let resource = resource.map_or(NONE, |pe| pe.index() as u32);
        for t in bits(labels) {
            let bit = 1u64 << t;
            let slot = &mut self.out[t];
            if self.found & bit == 0 {
                self.found |= bit;
                *slot = ResolvedActivation {
                    time,
                    column: key,
                    resource: NONE,
                };
                self.column_len[t] = specificity;
            } else {
                if slot.time != time {
                    self.conflict |= bit;
                }
                if specificity >= self.column_len[t] {
                    self.column_len[t] = specificity;
                    slot.column = key;
                }
            }
            if resource != NONE && (slot.resource == NONE || specificity > self.resource_len[t]) {
                slot.resource = resource;
                self.resource_len[t] = specificity;
            }
        }
    }

    /// Writes [`ResolvedActivation::NONE`] for the labels of `wanted` with no
    /// applicable activation and returns the mask of those with one.
    pub(crate) fn finish(self, wanted: u64) -> u64 {
        let resolved = self.found & !self.conflict & wanted;
        for t in bits(wanted & !resolved) {
            self.out[t] = ResolvedActivation::NONE;
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_visits_set_bits_lowest_first() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(bits(u64::MAX).count(), 64);
        assert_eq!(bits(1 << 63).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn full_and_empty_blocks_have_the_right_masks() {
        assert_eq!(LabelBlock::new(&[]).all(), 0);
        let full = LabelBlock::new(&[Cube::top(); LabelBlock::WIDTH]);
        assert_eq!(full.all(), u64::MAX);
        assert_eq!(full.satisfying(&Cube::top()), u64::MAX);
        assert_eq!(full.satisfying(&Cube::from(CondId::new(3).is_true())), 0);
        assert_eq!(full.holding(&Guard::never()), 0);
    }

    /// A cube over conditions `0..width` from the bits of `code`: two bits
    /// per condition, `00`/`11` leaving it out.
    fn cube(code: u64, width: usize) -> Cube {
        (0..width)
            .filter_map(|i| match code >> (2 * i) & 3 {
                1 => Some(CondId::new(i).is_true()),
                2 => Some(CondId::new(i).is_false()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn satisfying_agrees_with_implication() {
        // Blocks narrower and wider than the columns' literal counts.
        let mut code = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = || {
            code ^= code << 13;
            code ^= code >> 7;
            code ^= code << 17;
            code
        };
        for len in 1..=12 {
            let labels: Vec<Cube> = (0..len).map(|_| cube(next(), 6)).collect();
            let block = LabelBlock::new(&labels);
            for _ in 0..200 {
                let column = cube(next(), 6);
                let expected = labels
                    .iter()
                    .enumerate()
                    .filter(|(_, label)| label.implies(&column))
                    .fold(0, |mask, (t, _)| mask | 1u64 << t);
                assert_eq!(block.satisfying(&column), expected, "{column} over {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 labels")]
    fn an_oversized_block_is_rejected() {
        let _ = LabelBlock::new(&[Cube::top(); LabelBlock::WIDTH + 1]);
    }
}

//! Occupancy calendar of one exclusive resource (processor or bus).

use cpg_arch::Time;

/// Reserved intervals of one exclusive resource, kept sorted, disjoint and
/// coalesced: overlapping or touching reservations are merged on insert, so
/// the interval list stays proportional to the number of *distinct* busy
/// periods rather than to the number of `reserve` calls. This matters for the
/// adjustment step of the merge algorithm, which pre-reserves every locked
/// job once per repair restart.
///
/// Both operations run once per committed job of every scheduler run, so
/// neither allocates once the interval storage has grown: `earliest_fit`
/// only reads, and `reserve` edits the list in place (it overwrites the one
/// interval it merges with, inserts a new one, or overwrites the first of
/// several merged intervals and drains the rest).
#[derive(Debug, Clone, Default)]
pub(crate) struct Calendar {
    /// Reserved `[start, end)` intervals, sorted by start, pairwise disjoint.
    intervals: Vec<(Time, Time)>,
}

impl Calendar {
    /// Earliest start `>= after` at which a job of length `duration` fits
    /// without overlapping a reserved interval.
    ///
    /// The scan starts at the first interval ending after `after`: an
    /// interval ending at or before `after` can neither block the candidate
    /// nor push it later.
    // lint: hot-path (one fit per placement candidate of every committed job)
    pub(crate) fn earliest_fit(&self, after: Time, duration: Time) -> Time {
        let mut candidate = after;
        let first = self.intervals.partition_point(|&(_, end)| end <= after);
        for &(start, end) in &self.intervals[first..] {
            if candidate + duration <= start {
                break;
            }
            if end > candidate {
                candidate = end;
            }
        }
        candidate
    }

    /// Drops every reservation but keeps the interval storage allocated, so
    /// a calendar pooled in a [`RunScratch`](crate::RunScratch) is reusable
    /// across scheduler runs without allocator traffic.
    pub(crate) fn clear(&mut self) {
        self.intervals.clear();
    }

    /// Reserves `[start, start + duration)`, merging with any overlapping or
    /// touching intervals already present.
    // lint: hot-path (one reservation per committed job on an exclusive resource)
    pub(crate) fn reserve(&mut self, start: Time, duration: Time) {
        if duration.is_zero() {
            return;
        }
        let mut new_start = start;
        let mut new_end = start + duration;
        // First interval that could merge with the new one (ends at or after
        // its start), and one past the last (starts at or before its end).
        let lo = self.intervals.partition_point(|&(_, end)| end < new_start);
        let mut hi = lo;
        while hi < self.intervals.len() && self.intervals[hi].0 <= new_end {
            new_start = new_start.min(self.intervals[hi].0);
            new_end = new_end.max(self.intervals[hi].1);
            hi += 1;
        }
        let merged = (new_start, new_end);
        if hi == lo {
            self.intervals.insert(lo, merged);
        } else {
            self.intervals[lo] = merged;
            if hi > lo + 1 {
                self.intervals.drain(lo + 1..hi);
            }
        }
    }

    /// Number of distinct busy periods currently reserved.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.intervals.len()
    }

    /// Allocated interval capacity (exposed to assert `clear` frees nothing).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.intervals.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(units: u64) -> Time {
        Time::new(units)
    }

    #[test]
    fn finds_gaps_and_appends() {
        let mut cal = Calendar::default();
        cal.reserve(t(10), t(5));
        cal.reserve(t(20), t(5));
        // Fits before the first interval.
        assert_eq!(cal.earliest_fit(Time::ZERO, t(5)), Time::ZERO);
        // Does not fit before, lands in the gap between the intervals.
        assert_eq!(cal.earliest_fit(t(8), t(5)), t(15));
        // Too long for any gap: appended after the last interval.
        assert_eq!(cal.earliest_fit(Time::ZERO, t(11)), t(25));
        // Zero-length reservations are ignored.
        cal.reserve(t(2), Time::ZERO);
        assert_eq!(cal.earliest_fit(Time::ZERO, t(5)), Time::ZERO);
    }

    #[test]
    fn overlapping_reservations_coalesce() {
        let mut cal = Calendar::default();
        cal.reserve(t(10), t(5));
        // Identical reservation: no new segment.
        cal.reserve(t(10), t(5));
        assert_eq!(cal.segments(), 1);
        // Partial overlap extends the segment on both sides.
        cal.reserve(t(8), t(4));
        cal.reserve(t(13), t(4));
        assert_eq!(cal.segments(), 1);
        assert_eq!(cal.earliest_fit(t(8), t(1)), t(17));
        // Contained reservation changes nothing.
        cal.reserve(t(9), t(2));
        assert_eq!(cal.segments(), 1);
        assert_eq!(cal.earliest_fit(Time::ZERO, t(8)), Time::ZERO);
    }

    #[test]
    fn touching_reservations_merge_into_one_segment() {
        let mut cal = Calendar::default();
        cal.reserve(t(0), t(5));
        cal.reserve(t(5), t(5));
        assert_eq!(cal.segments(), 1);
        assert_eq!(cal.earliest_fit(Time::ZERO, t(1)), t(10));
    }

    #[test]
    fn a_reservation_can_bridge_several_segments() {
        let mut cal = Calendar::default();
        cal.reserve(t(0), t(2));
        cal.reserve(t(4), t(2));
        cal.reserve(t(8), t(2));
        assert_eq!(cal.segments(), 3);
        // Covers the gaps between all three: one segment remains.
        cal.reserve(t(1), t(8));
        assert_eq!(cal.segments(), 1);
        assert_eq!(cal.earliest_fit(Time::ZERO, t(1)), t(10));
    }

    #[test]
    fn clear_empties_the_calendar_but_keeps_its_storage() {
        let mut cal = Calendar::default();
        for i in 0..8 {
            cal.reserve(t(i * 10), t(2));
        }
        assert_eq!(cal.segments(), 8);
        let capacity = cal.capacity();
        assert!(capacity >= 8);
        cal.clear();
        assert_eq!(cal.segments(), 0);
        assert_eq!(cal.capacity(), capacity);
        // A cleared calendar behaves like a fresh one.
        assert_eq!(cal.earliest_fit(Time::ZERO, t(5)), Time::ZERO);
        cal.reserve(t(0), t(4));
        assert_eq!(cal.earliest_fit(Time::ZERO, t(5)), t(4));
    }

    /// Reference: the same scan started at the first interval.
    fn earliest_fit_from_the_start(cal: &Calendar, after: Time, duration: Time) -> Time {
        let mut candidate = after;
        for &(start, end) in &cal.intervals {
            if candidate + duration <= start {
                break;
            }
            if end > candidate {
                candidate = end;
            }
        }
        candidate
    }

    #[test]
    fn earliest_fit_matches_the_scan_from_the_first_interval() {
        // splitmix64: a fixed stream of random calendars and probes.
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..500 {
            let mut cal = Calendar::default();
            for _ in 0..next(12) {
                cal.reserve(t(next(60)), t(next(8)));
            }
            for _ in 0..20 {
                let (after, duration) = (t(next(70)), t(next(10)));
                assert_eq!(
                    cal.earliest_fit(after, duration),
                    earliest_fit_from_the_start(&cal, after, duration),
                    "calendar {:?}, after {after:?}, duration {duration:?}",
                    cal.intervals
                );
            }
        }
    }

    #[test]
    fn reserve_keeps_the_maximal_runs_of_reserved_units() {
        // Reference: a bitmap of reserved time units, whose maximal runs are
        // exactly the coalesced intervals (touching reservations merge).
        let mut state = 0x0ca1_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..500 {
            let mut cal = Calendar::default();
            let mut reserved = [false; 80];
            for _ in 0..next(16) {
                let (start, duration) = (next(64), next(12));
                cal.reserve(t(start), t(duration));
                for unit in start..start + duration {
                    reserved[unit as usize] = true;
                }
                let mut runs = Vec::new();
                let mut unit = 0;
                while unit < reserved.len() {
                    if reserved[unit] {
                        let from = unit;
                        while unit < reserved.len() && reserved[unit] {
                            unit += 1;
                        }
                        runs.push((t(from as u64), t(unit as u64)));
                    } else {
                        unit += 1;
                    }
                }
                assert_eq!(cal.intervals, runs);
            }
        }
    }

    #[test]
    fn disjoint_reservations_stay_separate_and_sorted() {
        let mut cal = Calendar::default();
        cal.reserve(t(20), t(2));
        cal.reserve(t(0), t(2));
        cal.reserve(t(10), t(2));
        assert_eq!(cal.segments(), 3);
        assert_eq!(cal.earliest_fit(Time::ZERO, t(3)), t(2));
        // A duration-8 job fits exactly in the [2, 10) gap; duration 9 must
        // skip past both remaining intervals.
        assert_eq!(cal.earliest_fit(t(1), t(8)), t(2));
        assert_eq!(cal.earliest_fit(t(1), t(9)), t(22));
    }
}

//! Measurement snapshot dates.
//!
//! The study runs weekly; this reproduction models the monthly granularity
//! the longitudinal figures (3, 4 and 8) are drawn at, plus the specific
//! measurement weeks referenced by the tables (week 13/15/16/20 of 2023).

use std::fmt;

/// A year/month snapshot date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotDate {
    /// Calendar year.
    pub year: u16,
    /// Calendar month (1–12).
    pub month: u8,
}

impl SnapshotDate {
    /// Construct a snapshot date.
    pub const fn new(year: u16, month: u8) -> Self {
        SnapshotDate { year, month }
    }

    /// June 2022 — the start of the longitudinal window (Figure 3).
    pub const JUN_2022: SnapshotDate = SnapshotDate::new(2022, 6);
    /// February 2023 — the mirroring low point (Figure 4).
    pub const FEB_2023: SnapshotDate = SnapshotDate::new(2023, 2);
    /// March 2023 — the lsquic 4.0 release and the mirroring jump.
    pub const MAR_2023: SnapshotDate = SnapshotDate::new(2023, 3);
    /// April 2023 — the main IPv4 measurement week (week 15/2023, Tables 1–7).
    pub const APR_2023: SnapshotDate = SnapshotDate::new(2023, 4);
    /// May 2023 — the TCP-vs-QUIC CE experiment (week 20/2023, Figure 6).
    pub const MAY_2023: SnapshotDate = SnapshotDate::new(2023, 5);

    /// Months elapsed since June 2022 (can be negative conceptually, clamped
    /// to zero here because the model starts at that date).
    pub fn months_since_start(self) -> u32 {
        let total = u32::from(self.year) * 12 + u32::from(self.month) - 1;
        let start = 2022 * 12 + 5;
        total.saturating_sub(start)
    }

    /// The date `months` months after June 2022 — the inverse of
    /// [`SnapshotDate::months_since_start`] for every date at or after the
    /// start of the model.  `qem-store`'s longitudinal manifests persist
    /// dates in this compact offset form and rely on the round-trip.
    pub fn from_months_since_start(months: u32) -> SnapshotDate {
        let total = 2022 * 12 + 5 + months;
        SnapshotDate {
            year: (total / 12) as u16,
            month: (total % 12 + 1) as u8,
        }
    }

    /// The monthly sequence from June 2022 to April 2023 inclusive, the range
    /// Figure 3 plots.
    pub fn longitudinal_range() -> Vec<SnapshotDate> {
        let mut out = Vec::new();
        for month in 6..=12 {
            out.push(SnapshotDate::new(2022, month));
        }
        for month in 1..=4 {
            out.push(SnapshotDate::new(2023, month));
        }
        out
    }
}

impl fmt::Display for SnapshotDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}-{:02}", self.year % 100, self.month)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_chronological() {
        assert!(SnapshotDate::JUN_2022 < SnapshotDate::FEB_2023);
        assert!(SnapshotDate::FEB_2023 < SnapshotDate::MAR_2023);
        assert!(SnapshotDate::MAR_2023 < SnapshotDate::APR_2023);
    }

    #[test]
    fn months_since_start() {
        assert_eq!(SnapshotDate::JUN_2022.months_since_start(), 0);
        assert_eq!(SnapshotDate::new(2022, 7).months_since_start(), 1);
        assert_eq!(SnapshotDate::APR_2023.months_since_start(), 10);
    }

    #[test]
    fn longitudinal_range_matches_figure_3() {
        let range = SnapshotDate::longitudinal_range();
        assert_eq!(range.len(), 11);
        assert_eq!(range[0], SnapshotDate::JUN_2022);
        assert_eq!(*range.last().unwrap(), SnapshotDate::APR_2023);
        assert!(range.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn months_since_start_round_trips_for_the_model_window() {
        // Every month from the start of the model through the end of 2025
        // (well past any date the reproduction uses) must survive the
        // offset encoding qem-store persists.
        for months in 0..43 {
            let date = SnapshotDate::from_months_since_start(months);
            assert_eq!(date.months_since_start(), months, "offset {months}");
        }
        // And the named constants map onto their known offsets.
        for date in [
            SnapshotDate::JUN_2022,
            SnapshotDate::FEB_2023,
            SnapshotDate::MAR_2023,
            SnapshotDate::APR_2023,
            SnapshotDate::MAY_2023,
        ] {
            assert_eq!(
                SnapshotDate::from_months_since_start(date.months_since_start()),
                date
            );
        }
        // Year boundaries land on real months.
        assert_eq!(
            SnapshotDate::from_months_since_start(6),
            SnapshotDate::new(2022, 12)
        );
        assert_eq!(
            SnapshotDate::from_months_since_start(7),
            SnapshotDate::new(2023, 1)
        );
    }

    #[test]
    fn longitudinal_range_is_strictly_ordered_and_unique() {
        let range = SnapshotDate::longitudinal_range();
        // Strict chronological order implies uniqueness; check both anyway
        // so a future edit that breaks one invariant names it precisely.
        assert!(range.windows(2).all(|w| w[0] < w[1]), "range must ascend");
        let mut deduped = range.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), range.len(), "range must not repeat dates");
        // Consecutive months: the offsets form 0, 1, 2, … with no gaps —
        // the property the store's delta chain indexing relies on.
        for (idx, date) in range.iter().enumerate() {
            assert_eq!(date.months_since_start(), idx as u32);
        }
    }

    #[test]
    fn display_matches_paper_axis_labels() {
        assert_eq!(SnapshotDate::JUN_2022.to_string(), "22-06");
        assert_eq!(SnapshotDate::APR_2023.to_string(), "23-04");
    }
}

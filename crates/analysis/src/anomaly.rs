//! Classified capture anomalies.
//!
//! A corrupted capture must still yield per-function times plus an
//! explicit account of what was lost (trace-analysis tools serving
//! real workloads degrade gracefully on malformed input rather than
//! abort).  Every anomaly the recovery pipeline tolerates is classified
//! into one of these counters, carried through the
//! [`crate::Reconstruction`] monoid merge, and surfaced in the report
//! and trace output.

/// Per-class anomaly counts for one reconstruction.
///
/// Like every other [`crate::Reconstruction`] field this is a monoid:
/// [`Anomalies::default`] is the identity and [`Anomalies::merge`] is a
/// field-wise sum, so per-session counts merged in session order equal
/// one sequential pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Anomalies {
    /// Exits with no matching open frame anywhere on the stack
    /// (a dropped entry, or the capture started mid-call).
    pub orphan_exits: u64,
    /// Entries that never saw their exit: frames force-closed to
    /// resynchronize on a deeper matching exit, plus frames still open
    /// at capture end (a dropped exit, or the capture ended mid-call).
    pub unmatched_entries: u64,
    /// Tags absent from the name file (spurious EPROM reads, or a
    /// bit-flipped tag).
    pub unknown_tags: u64,
    /// Timestamps that jumped more than half the 24-bit window in one
    /// step — beyond any single wrap a live kernel produces between
    /// back-to-back events (a bit-flipped time field).
    pub time_jumps: u64,
    /// Adjacent identical records dropped at decode (a stuck address
    /// counter storing the same cell twice).
    pub duplicates: u64,
    /// Uploads whose byte stream ended mid-record (a truncated
    /// transfer).
    pub truncations: u64,
}

impl Anomalies {
    /// Folds `other` into `self` (field-wise sum).
    pub fn merge(&mut self, other: &Anomalies) {
        self.orphan_exits += other.orphan_exits;
        self.unmatched_entries += other.unmatched_entries;
        self.unknown_tags += other.unknown_tags;
        self.time_jumps += other.time_jumps;
        self.duplicates += other.duplicates;
        self.truncations += other.truncations;
    }

    /// Every class's count with its field name, in field order.
    pub fn classes(&self) -> [(u64, &'static str); 6] {
        [
            (self.orphan_exits, "orphan_exits"),
            (self.unmatched_entries, "unmatched_entries"),
            (self.unknown_tags, "unknown_tags"),
            (self.time_jumps, "time_jumps"),
            (self.duplicates, "duplicates"),
            (self.truncations, "truncations"),
        ]
    }

    /// Total anomalies across every class.
    pub fn total(&self) -> u64 {
        self.classes().iter().map(|&(n, _)| n).sum()
    }

    /// The anomaly budget: true when these anomalies exceed `limit_ppm`
    /// per million of `tags` captured tags (an empty capture counts as
    /// one tag).
    pub fn exceeds(&self, tags: u64, limit_ppm: u32) -> bool {
        self.total() * 1_000_000 > tags.max(1) * u64::from(limit_ppm)
    }

    /// True if nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// One line per nonzero class, for the report's integrity block.
    pub fn describe(&self) -> Vec<String> {
        let classes: [(u64, &str); 6] = [
            (self.orphan_exits, "orphan exits"),
            (self.unmatched_entries, "unmatched entries"),
            (self.unknown_tags, "unknown tags"),
            (self.time_jumps, "time jumps"),
            (self.duplicates, "duplicate records"),
            (self.truncations, "truncated uploads"),
        ];
        classes
            .iter()
            .filter(|(n, _)| *n > 0)
            .map(|(n, what)| format!("{n:>9} {what}"))
            .collect()
    }
}

impl std::fmt::Display for Anomalies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut first = true;
        for (n, name) in self.classes() {
            if n > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{n} {}", name.replace('_', " "))?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_sum() {
        let mut a = Anomalies {
            orphan_exits: 1,
            duplicates: 2,
            ..Anomalies::default()
        };
        let b = Anomalies {
            orphan_exits: 3,
            unknown_tags: 4,
            ..Anomalies::default()
        };
        a.merge(&b);
        assert_eq!(a.orphan_exits, 4);
        assert_eq!(a.duplicates, 2);
        assert_eq!(a.unknown_tags, 4);
        assert_eq!(a.total(), 10);
        assert!(!a.is_clean());
        assert!(Anomalies::default().is_clean());
    }

    #[test]
    fn budget_passes_at_the_limit_and_counts_no_tags_as_one() {
        let two = Anomalies {
            unknown_tags: 2,
            ..Anomalies::default()
        };
        // 2 anomalies in 1000 tags is exactly 2000 ppm.
        assert!(!two.exceeds(1_000, 2_000), "at the limit passes");
        let three = Anomalies {
            duplicates: 1,
            ..two
        };
        assert!(three.exceeds(1_000, 2_000), "one over fails");
        // No tags counts as one: 2 anomalies are 2000000 ppm of it.
        assert!(!two.exceeds(0, 2_000_000));
        assert!(two.exceeds(0, 1_999_999));
    }

    #[test]
    fn describe_lists_only_nonzero() {
        let a = Anomalies {
            time_jumps: 7,
            ..Anomalies::default()
        };
        let lines = a.describe();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("7 time jumps"));
        assert_eq!(format!("{a}"), "7 time jumps");
        assert_eq!(format!("{}", Anomalies::default()), "clean");
    }
}

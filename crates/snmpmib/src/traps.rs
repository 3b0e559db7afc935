//! Exports a sentinel [`AlertJournal`] as SNMP trap-style rows.
//!
//! The PR-4 [`MibExporter`](crate::MibExporter) serves live telemetry
//! under arcs 1 (scalars) and 2 (histograms) of the enterprises base;
//! alert transitions land next to them under arc 3 as one row per
//! journal entry, so the same get-next walk that reads the pipeline's
//! health also reads what the sentinel concluded about it.
//!
//! Layout, rooted at the exporter's base OID (default
//! `1.3.6.1.4.1.1993`, the same base as [`MibExporter`](crate::MibExporter)):
//!
//! * `base.3.<seq>.1` — window index that drove the transition.
//! * `base.3.<seq>.2` — clipped window end, absolute µs.
//! * `base.3.<seq>.3` — detector code ([`Detector::code`]).
//! * `base.3.<seq>.4` — transition code ([`AlertTransition::code`]).
//! * `base.3.<seq>.5` — baseline statistic (detector unit).
//! * `base.3.<seq>.6` — observed statistic (same unit).
//! * `base.3.<seq>.7` — delta, zigzag-encoded ([`zigzag`]) so the
//!   signed value survives the `u64`-only MIB.
//!
//! `<seq>` is the entry's 1-based journal sequence, so a journal
//! exported twice lands every object on the same OID.  Subjects are
//! strings, so — exactly like metric names — they travel in a side
//! table: the [`TrapLegend`] maps each row prefix back to its
//! detector, subject, and transition.

use hwprof_analysis::sentinel::{AlertJournal, AlertTransition, Detector};

use crate::btree::BtreeMib;
use crate::exporter::walk_subtree;
use crate::oid::Oid;
use crate::Mib;

/// Arc under the base for alert trap rows.
pub const TRAPS_ARC: u32 = 3;

/// Zigzag-encodes a signed delta into the `u64` value space
/// (0 → 0, -1 → 1, 1 → 2, -2 → 3, …), exactly invertible by
/// [`unzigzag`].
pub fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Maps an [`AlertJournal`] onto trap rows in any [`Mib`] store.
#[derive(Debug, Clone)]
pub struct TrapExporter {
    base: Oid,
}

impl Default for TrapExporter {
    /// The default subtree root: enterprises.1993.
    fn default() -> Self {
        TrapExporter::new(Oid::new(vec![1, 3, 6, 1, 4, 1, 1993]))
    }
}

impl TrapExporter {
    /// An exporter rooted at `base` (rows go under `base.3`).
    pub fn new(base: Oid) -> Self {
        TrapExporter { base }
    }

    /// The subtree root.
    pub fn base(&self) -> &Oid {
        &self.base
    }

    fn oid(&self, arcs: &[u32]) -> Oid {
        let mut v = self.base.arcs().to_vec();
        v.extend_from_slice(arcs);
        Oid::new(v)
    }

    /// Writes every journal entry into `mib` as one trap row,
    /// returning the legend that names the rows.
    pub fn export_into(&self, journal: &AlertJournal, mib: &mut dyn Mib) -> TrapLegend {
        let mut legend = TrapLegend {
            entries: Vec::new(),
        };
        for e in journal.entries() {
            let seq = e.seq as u32;
            let prefix = self.oid(&[TRAPS_ARC, seq]);
            mib.set(self.oid(&[TRAPS_ARC, seq, 1]), e.window);
            mib.set(self.oid(&[TRAPS_ARC, seq, 2]), e.at_us);
            mib.set(self.oid(&[TRAPS_ARC, seq, 3]), e.detector.code());
            mib.set(self.oid(&[TRAPS_ARC, seq, 4]), e.transition.code());
            mib.set(self.oid(&[TRAPS_ARC, seq, 5]), e.baseline);
            mib.set(self.oid(&[TRAPS_ARC, seq, 6]), e.observed);
            mib.set(self.oid(&[TRAPS_ARC, seq, 7]), zigzag(e.delta));
            legend.entries.push(TrapRow {
                oid: prefix,
                detector: e.detector,
                subject: e.subject.clone(),
                transition: e.transition,
            });
        }
        legend
    }

    /// Exports `journal` into a fresh B-tree store, ready to serve
    /// next to the telemetry subtree.
    pub fn export(&self, journal: &AlertJournal) -> (BtreeMib, TrapLegend) {
        let mut mib = BtreeMib::new();
        let legend = self.export_into(journal, &mut mib);
        (mib, legend)
    }

    /// Full get-next walk of the trap subtree in `mib`: every row
    /// object under `base.3`, in OID order, plus the comparison cost.
    pub fn walk(&self, mib: &dyn Mib) -> (Vec<(Oid, u64)>, usize) {
        walk_subtree(mib, &self.oid(&[TRAPS_ARC]))
    }
}

/// One legend row: the trap's OID prefix and its string-valued
/// identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapRow {
    /// Row prefix (`base.3.<seq>`).
    pub oid: Oid,
    /// The detector.
    pub detector: Detector,
    /// The alert subject.
    pub subject: String,
    /// The transition.
    pub transition: AlertTransition,
}

/// Name side-table for an exported trap subtree.
#[derive(Debug, Clone, Default)]
pub struct TrapLegend {
    /// One row per journal entry, in journal order.
    pub entries: Vec<TrapRow>,
}

impl TrapLegend {
    /// The legend row a walked OID belongs to.
    pub fn row_of(&self, oid: &Oid) -> Option<&TrapRow> {
        self.entries
            .iter()
            .find(|r| oid.arcs().starts_with(r.oid.arcs()))
    }

    /// A deterministic one-line label for a walked OID, matching the
    /// journal's `detector(subject) TRANSITION` dialect.
    pub fn label_of(&self, oid: &Oid) -> Option<String> {
        self.row_of(oid).map(|r| {
            format!(
                "{}({}) {}",
                r.detector.label(),
                r.subject,
                r.transition.label()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_analysis::sentinel::{Sentinel, SentinelConfig};
    use hwprof_analysis::{MaskVisibility, Reconstruction, Symbols};
    use hwprof_telemetry::Registry;

    fn journal() -> AlertJournal {
        let mut tf = hwprof_tagfile::TagFile::new(500);
        tf.assign("bcopy", hwprof_tagfile::TagKind::Function)
            .expect("fresh");
        let sy = Symbols::from_tagfile(&tf);
        let s = (0..sy.len())
            .find(|&i| sy.name(i as u32) == "bcopy")
            .expect("assigned");
        let vis = vec![MaskVisibility::UnlessSwitchOnly; sy.len()];
        let mut sent = Sentinel::new(SentinelConfig);
        for (w, net) in [50u64, 50, 50, 300, 300, 300, 50, 50]
            .into_iter()
            .enumerate()
        {
            let mut r = Reconstruction::empty(sy.clone());
            r.stats[s].calls = net / 10;
            r.stats[s].net = net;
            r.stats[s].elapsed = net;
            r.total_elapsed = 1_000;
            r.tags = 100;
            r.note_coverage(&hwprof_profiler::Coverage {
                timeline_us: 1_000,
                covered_us: 1_000,
                level_us: [1_000, 0, 0],
                ..hwprof_profiler::Coverage::default()
            });
            sent.observe(w as u64, (w as u64 + 1) * 1_000, &r, &vis, None);
        }
        sent.journal().clone()
    }

    #[test]
    fn zigzag_roundtrips() {
        for d in [0i64, 1, -1, 250, -250, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn journal_exports_one_row_per_entry() {
        let j = journal();
        assert_eq!(j.len(), 3, "Pending, Firing, Resolved: {}", j.describe());
        let exp = TrapExporter::default();
        let (mib, legend) = exp.export(&j);
        let (objs, cmps) = exp.walk(&mib);
        assert!(cmps > 0);
        assert_eq!(objs.len(), 3 * 7);
        assert_eq!(legend.entries.len(), 3);
        for (oid, _) in &objs {
            assert!(legend.row_of(oid).is_some(), "unnamed trap object {oid}");
        }
        // The Firing row carries the exact evidence.
        let e = &j.entries()[1];
        let firing = &legend.entries[1];
        assert_eq!(
            legend.label_of(&firing.oid).as_deref(),
            Some("rate-shift(bcopy) FIRING")
        );
        let field = |arc: u32| {
            let mut v = firing.oid.arcs().to_vec();
            v.push(arc);
            mib.get(&Oid::new(v)).0.expect("row field present")
        };
        assert_eq!(field(1), e.window);
        assert_eq!(field(3), e.detector.code());
        assert_eq!(field(4), e.transition.code());
        assert_eq!(field(5), 50);
        assert_eq!(field(6), 300);
        assert_eq!(unzigzag(field(7)), 250);
    }

    #[test]
    fn traps_share_a_store_with_telemetry() {
        // Arc 3 nests next to arcs 1/2 in one store: a single walk of
        // the base reads health metrics and alert rows together.
        let reg = Registry::new();
        reg.counter("sent.fired").add(1);
        let snap = reg.snapshot();
        let mexp = crate::MibExporter::default();
        let mut mib = BtreeMib::new();
        let mlegend = mexp.export_into(&snap, &mut mib);
        let texp = TrapExporter::default();
        let tlegend = texp.export_into(&journal(), &mut mib);
        let (objs, _) = walk_subtree(&mib, mexp.base());
        assert_eq!(objs.len(), 1 + 3 * 7);
        for (oid, _) in &objs {
            assert!(
                mlegend.name_of(oid).is_some() || tlegend.row_of(oid).is_some(),
                "unnamed object {oid}"
            );
        }
    }

    #[test]
    fn export_is_deterministic() {
        let j = journal();
        let exp = TrapExporter::new(Oid::new(vec![1, 3, 9]));
        let (bt, _) = exp.export(&j);
        let mut lin = crate::LinearMib::new();
        let legend_lin = exp.export_into(&j, &mut lin);
        let (walk_bt, _) = exp.walk(&bt);
        let (walk_lin, _) = exp.walk(&lin);
        assert_eq!(walk_bt, walk_lin, "stores disagree on the subtree");
        let (bt2, legend2) = exp.export(&j);
        assert_eq!(exp.walk(&bt2).0, walk_bt);
        assert_eq!(legend2.entries, legend_lin.entries);
    }
}

//! One front door to every analysis flavour.
//!
//! Every analysis — one session or many, batch or fanned out, plain or
//! gap-aware over a supervised run — composes the same three
//! independent choices, which [`Analyzer`] makes explicit:
//!
//! * **decode/reconstruction mode** — strict, or
//!   [recovering](Analyzer::recovering) (tolerant decode plus
//!   resynchronizing reconstruction, every intervention classified in
//!   [`crate::Anomalies`]);
//! * **schedule** — sequential, or fanned out across
//!   [workers](Analyzer::workers) (bit-identical by the monoid-merge
//!   argument; only the schedule differs);
//! * **trust gate** — an optional [anomaly
//!   budget](Analyzer::limit_ppm) in parts per million of captured
//!   tags, refused with [`AnalyzerError::AnomalyLimit`] when crossed.
//!
//! Every combination, recovering + parallel included, is one builder
//! chain:
//!
//! ```
//! use hwprof_analysis::Analyzer;
//!
//! let tf = hwprof_tagfile::parse("a/100\nb/102\n").unwrap();
//! let analyzer = Analyzer::for_tagfile(&tf).recovering(true).workers(4);
//! let r = analyzer.records(&[]).unwrap();
//! assert_eq!(r.tags, 0);
//! ```

use hwprof_profiler::{RawRecord, SupervisedRun};
use hwprof_tagfile::TagFile;

use crate::columnar::DenseTagTable;
use crate::events::{Event, Symbols};
use crate::recon::{BankRecon, Reconstruction, SessionRecon};

/// Why an [`Analyzer`] refused to produce a reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzerError {
    /// The capture's classified anomaly rate crossed the configured
    /// [`Analyzer::limit_ppm`] budget: the numbers cannot be trusted.
    AnomalyLimit {
        /// Classified anomalies the pipeline counted.
        anomalies: u64,
        /// Hardware events in the capture.
        tags: u64,
        /// The configured budget, in anomalies per million tags.
        limit_ppm: u32,
    },
    /// A raw-record or supervised-run entry point needs the build's tag
    /// file, but the analyzer was built from bare [`Symbols`]
    /// ([`Analyzer::new`]); use [`Analyzer::for_tagfile`].
    MissingTagFile,
}

impl std::fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzerError::AnomalyLimit {
                anomalies,
                tags,
                limit_ppm,
            } => write!(
                f,
                "capture too corrupt to trust: {anomalies} anomalies in {tags} tags \
                 (budget {limit_ppm} per million)"
            ),
            AnalyzerError::MissingTagFile => write!(
                f,
                "this entry point decodes raw records and needs the build's tag file; \
                 construct the analyzer with Analyzer::for_tagfile"
            ),
        }
    }
}

impl std::error::Error for AnalyzerError {}

/// The consolidated analysis front door: mode, schedule and trust gate
/// chosen once, then applied to whatever form the capture arrives in
/// (decoded events, raw records, or a whole supervised run).
#[derive(Debug, Clone)]
#[must_use = "an Analyzer does nothing until an analyze method consumes a capture"]
pub struct Analyzer {
    syms: Symbols,
    tagfile: Option<TagFile>,
    recovering: bool,
    workers: usize,
    limit_ppm: Option<u32>,
}

impl Analyzer {
    /// An analyzer over pre-decoded events: strict, sequential, no
    /// anomaly budget.  Entry points that decode raw records
    /// ([`records`](Analyzer::records), [`run`](Analyzer::run)) need
    /// the tag file too — use [`Analyzer::for_tagfile`] for those.
    pub fn new(syms: &Symbols) -> Self {
        Analyzer {
            syms: syms.clone(),
            tagfile: None,
            recovering: false,
            workers: 1,
            limit_ppm: None,
        }
    }

    /// An analyzer for captures from a build with this tag file; every
    /// entry point is available.
    pub fn for_tagfile(tf: &TagFile) -> Self {
        Analyzer {
            tagfile: Some(tf.clone()),
            ..Analyzer::new(&Symbols::from_tagfile(tf))
        }
    }

    /// Recovery mode: duplicates dropped, corrupt timestamps clamped,
    /// mispaired frames resynchronized, every intervention classified
    /// in [`Reconstruction::anomalies`] instead of corrupting the
    /// numbers silently.
    pub fn recovering(mut self, on: bool) -> Self {
        self.recovering = on;
        self
    }

    /// Fans multi-session work out across `n` threads (contiguous
    /// session blocks, merged in order — bit-identical to sequential).
    /// `0` and `1` both mean sequential.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Refuses the reconstruction with [`AnalyzerError::AnomalyLimit`]
    /// if classified anomalies exceed `ppm` per million captured tags.
    pub fn limit_ppm(mut self, ppm: u32) -> Self {
        self.limit_ppm = Some(ppm);
        self
    }

    /// The symbol table this analyzer reconstructs against.
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// The base fold every flavour goes through: sessions reconstructed
    /// in isolation, accumulated in order into one result.  A single
    /// arena-backed [`SessionRecon`] serves every session, so the loop
    /// allocates no per-session state (bit-identical to building and
    /// merging per-session `Reconstruction`s — the monoid argument).
    fn fold<I>(&self, sessions: I) -> Reconstruction
    where
        I: IntoIterator,
        I::Item: AsRef<[Event]>,
    {
        let mut out = Reconstruction::empty(self.syms.clone());
        let mut recon = SessionRecon::new(&self.syms, self.recovering);
        for s in sessions {
            recon.session_into(s.as_ref(), &mut out);
        }
        out
    }

    /// [`fold`](Analyzer::fold) for raw banks: each decoded and
    /// reconstructed as one session through a single [`BankRecon`].
    fn fold_banks<I>(&self, table: &DenseTagTable, banks: I) -> Reconstruction
    where
        I: IntoIterator,
        I::Item: AsRef<[RawRecord]>,
    {
        let mut out = Reconstruction::empty(self.syms.clone());
        let mut bank = BankRecon::new(table, &self.syms, self.recovering);
        for b in banks {
            bank.bank_into(b.as_ref(), &mut out);
        }
        out
    }

    /// A fold fanned out across the configured workers: contiguous
    /// blocks of `items`, each folded on its own thread, block results
    /// merged in order.  Decode, reconstruction and the trace
    /// concatenation all parallelize with the blocks, leaving only
    /// `workers - 1` merges on the calling thread.
    fn fan_out<T: Sync>(
        &self,
        items: &[T],
        fold: impl Fn(&[T]) -> Reconstruction + Sync,
    ) -> Reconstruction {
        let workers = self.workers.min(items.len().max(1));
        if workers <= 1 {
            return fold(items);
        }
        let chunk = items.len().div_ceil(workers);
        let fold = &fold;
        let parts: Vec<Reconstruction> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|block| scope.spawn(move || fold(block)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });
        let mut out = Reconstruction::empty(self.syms.clone());
        out.trace.reserve(parts.iter().map(|r| r.trace.len()).sum());
        for r in parts {
            out.merge(r);
        }
        out
    }

    /// The trust gate, applied by every public entry point.
    fn gate(&self, r: Reconstruction) -> Result<Reconstruction, AnalyzerError> {
        if let Some(limit_ppm) = self.limit_ppm {
            let tags = r.tags as u64;
            if r.anomalies.exceeds(tags, limit_ppm) {
                return Err(AnalyzerError::AnomalyLimit {
                    anomalies: r.anomalies.total(),
                    tags,
                    limit_ppm,
                });
            }
        }
        Ok(r)
    }

    fn dense_table(&self) -> Result<DenseTagTable, AnalyzerError> {
        Ok(DenseTagTable::from_tagfile(
            self.tagfile.as_ref().ok_or(AnalyzerError::MissingTagFile)?,
        ))
    }

    /// Analyzes one decoded capture session.
    pub fn session(&self, events: &[Event]) -> Result<Reconstruction, AnalyzerError> {
        self.gate(self.fold([events]))
    }

    /// Analyzes several capture sessions (merged in slice order), fanned
    /// out across the configured workers.
    pub fn sessions(&self, sessions: &[Vec<Event>]) -> Result<Reconstruction, AnalyzerError> {
        self.gate(self.fan_out(sessions, |block| self.fold(block)))
    }

    /// Analyzes an iterator of capture sessions, folded sequentially in
    /// iteration order.
    pub fn sessions_iter<I>(&self, sessions: I) -> Result<Reconstruction, AnalyzerError>
    where
        I: IntoIterator,
        I::Item: AsRef<[Event]>,
    {
        self.gate(self.fold(sessions))
    }

    /// Decodes and analyzes one uploaded RAM image as a single session.
    /// Needs [`Analyzer::for_tagfile`].
    pub fn records(&self, records: &[RawRecord]) -> Result<Reconstruction, AnalyzerError> {
        self.record_sessions(std::iter::once(records))
    }

    /// Decodes and analyzes several uploaded RAM images (carried
    /// battery-backed RAMs, in swap order), each as one session.  Needs
    /// [`Analyzer::for_tagfile`].
    pub fn record_sessions<I>(&self, banks: I) -> Result<Reconstruction, AnalyzerError>
    where
        I: IntoIterator,
        I::Item: AsRef<[RawRecord]>,
    {
        self.gate(self.fold_banks(&self.dense_table()?, banks))
    }

    /// Stitches a supervised run: each delivered bank decoded and
    /// reconstructed as one session (fanned out across the configured
    /// workers), merged in bank order, the run's [`Coverage`] ledger
    /// folded in so the report carries its "Coverage" block.  Needs
    /// [`Analyzer::for_tagfile`].
    ///
    /// [`Coverage`]: hwprof_profiler::Coverage
    pub fn run(&self, run: &SupervisedRun) -> Result<Reconstruction, AnalyzerError> {
        let table = self.dense_table()?;
        let mut out = self.fan_out(&run.sessions, |block| {
            self.fold_banks(&table, block.iter().map(|s| &s.records))
        });
        out.note_coverage(&run.coverage);
        self.gate(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_profiler::RawRecord;

    const TF: &str = "a/100\nb/102\nswtch/200!\n";

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    #[test]
    fn session_matches_sessions_and_parallel() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        let records = [rec(100, 0), rec(102, 20), rec(103, 50), rec(101, 100)];
        let a = Analyzer::for_tagfile(&tf);
        let one = a.records(&records).unwrap();
        let (_, events) = crate::events::decode(&records, &tf);
        assert_eq!(a.session(&events).unwrap(), one);
        assert_eq!(a.sessions(std::slice::from_ref(&events)).unwrap(), one);
        assert_eq!(a.clone().workers(4).sessions(&[events]).unwrap(), one);
        assert_eq!(one.agg("a").unwrap().net, 70);
    }

    #[test]
    fn recovering_mode_classifies_instead_of_miscounting() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        // A duplicate record and an unknown tag among clean pairs.
        let records = [rec(100, 0), rec(100, 0), rec(0x9999, 5), rec(101, 10)];
        let strict = Analyzer::for_tagfile(&tf).records(&records).unwrap();
        let recovering = Analyzer::for_tagfile(&tf)
            .recovering(true)
            .records(&records)
            .unwrap();
        assert_eq!(recovering.anomalies.duplicates, 1);
        assert_eq!(recovering.anomalies.unknown_tags, 1);
        assert_eq!(recovering.agg("a").unwrap().calls, 1);
        // Strict decode keeps the duplicate as a real (bogus) event.
        assert!(strict.tags >= recovering.tags);
    }

    /// The fanned-out `run` notes each bank's decode-level anomalies
    /// inside its worker's fold; the total must still be exactly the
    /// sequential per-bank sum.
    #[test]
    fn recovering_run_matches_record_sessions() {
        use hwprof_profiler::{Coverage, SupervisedSession, TagMaskLevel};
        let tf = hwprof_tagfile::parse(TF).unwrap();
        const FLIP: u32 = 1 << 23;
        // Duplicates and flipped high time bits spread across banks, so
        // every block of a three-way fan-out carries some.
        let banks = vec![
            vec![
                rec(100, 0),
                rec(100, 0),
                rec(102, 20),
                rec(103, 50),
                rec(101, 100),
            ],
            vec![
                rec(100, 200),
                rec(102, 210 | FLIP),
                rec(103, 230),
                rec(101, 260),
            ],
            vec![rec(102, 300), rec(102, 300), rec(103, 320)],
            vec![
                rec(100, 400),
                rec(101, 410 | FLIP),
                rec(100, 420),
                rec(101, 430),
            ],
        ];
        let run = SupervisedRun {
            sessions: banks
                .iter()
                .enumerate()
                .map(|(i, records)| SupervisedSession {
                    index: i as u64,
                    start_us: 0,
                    end_us: 0,
                    level: TagMaskLevel::All,
                    records: records.clone(),
                })
                .collect(),
            gaps: Vec::new(),
            coverage: Coverage {
                timeline_us: 500,
                covered_us: 500,
                ..Coverage::empty()
            },
            final_level: TagMaskLevel::All,
            hot_tags: Vec::new(),
        };
        let a = Analyzer::for_tagfile(&tf).recovering(true);
        let mut expect = a.record_sessions(&banks).unwrap();
        expect.note_coverage(&run.coverage);
        assert!(expect.anomalies.duplicates >= 2, "{:?}", expect.anomalies);
        assert!(expect.anomalies.time_jumps >= 2, "{:?}", expect.anomalies);
        for workers in [1, 3] {
            let got = a.clone().workers(workers).run(&run).unwrap();
            assert_eq!(got, expect, "workers({workers})");
        }
    }

    #[test]
    fn limit_ppm_gates_corrupt_captures() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        let records = [rec(100, 0), rec(0x9999, 5), rec(101, 10)];
        let lax = Analyzer::for_tagfile(&tf)
            .recovering(true)
            .limit_ppm(1_000_000);
        assert!(lax.records(&records).is_ok());
        let strict = Analyzer::for_tagfile(&tf).recovering(true).limit_ppm(1);
        match strict.records(&records) {
            Err(AnalyzerError::AnomalyLimit {
                anomalies,
                limit_ppm,
                ..
            }) => {
                assert_eq!(anomalies, 1);
                assert_eq!(limit_ppm, 1);
            }
            other => panic!("wanted AnomalyLimit, got {other:?}"),
        }
    }

    #[test]
    fn records_without_tagfile_is_an_error() {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        let syms = Symbols::from_tagfile(&tf);
        let a = Analyzer::new(&syms);
        assert_eq!(a.records(&[]).unwrap_err(), AnalyzerError::MissingTagFile);
        // Event-level entry points still work.
        assert!(a.session(&[]).is_ok());
    }
}

//! Gap-aware stitching of supervised captures.
//!
//! A [`SupervisedRun`] is a sequence of per-bank capture sessions
//! separated by explicit dark windows ([`Gap`]s).  Stitching joins
//! those sessions into one timeline reconstruction:
//!
//! * each bank is one capture session, reconstructed in isolation and
//!   merged in bank order through the [`Reconstruction`] monoid — so
//!   nothing is charged during gaps (elapsed time is summed per
//!   session, and gaps lie between sessions);
//! * the run's [`Coverage`] accounting (gaps, mask downgrades, retry
//!   totals) is folded in field-wise, and surfaces in the report's
//!   "Coverage" block;
//! * per-function statistics can be rescaled by per-mask-level
//!   coverage: a function whose tags were masked at some ladder level
//!   was only *observable* during the covered time at the levels that
//!   admit it, so its whole-timeline rate is estimated by dividing by
//!   the visible time, not the total time.  Masking is a pure filter
//!   applied before the board — it removes events without disturbing
//!   the rest of the stream — so under a steady workload the estimate
//!   is unbiased.
//!
//! A live run stitches as banks arrive ([`SupervisedFold`]), a finished
//! one through [`Analyzer::run`](crate::Analyzer::run); both are
//! bit-identical by the same argument as the plain analysis paths:
//! identical per-session work, associative merge, merge order fixed by
//! bank index.

use std::sync::{Arc, Mutex, MutexGuard};

use hwprof_profiler::{Coverage, Gap, SessionSink, SupervisedRun, SupervisedSession};
use hwprof_tagfile::{TagFile, TagKind};

use crate::columnar::DenseTagTable;
use crate::events::Symbols;
use crate::recon::{BankFold, BankRecon, Reconstruction};
use crate::recorder::FlightRecorder;

/// When a function's tags pass the EE-PAL, by ladder level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskVisibility {
    /// Context-switch (`!`) tags: admitted at every level.
    AllLevels,
    /// Ordinary tags: admitted unless the ladder is at `SwitchOnly`.
    UnlessSwitchOnly,
    /// Hot-masked tags: admitted only at `All`.
    AllOnly,
}

/// Classifies when `name`'s tags were visible during a supervised run
/// whose mask ended with the hot set `hot_tags` (sorted, as in
/// [`SupervisedRun::hot_tags`]).
pub fn visibility(tf: &TagFile, hot_tags: &[u16], name: &str) -> Option<MaskVisibility> {
    let entry = tf.entry_of(name)?;
    if entry.kind == TagKind::ContextSwitch {
        return Some(MaskVisibility::AllLevels);
    }
    if hot_tags.binary_search(&entry.tag).is_ok() {
        return Some(MaskVisibility::AllOnly);
    }
    Some(MaskVisibility::UnlessSwitchOnly)
}

/// Covered microseconds during which tags of the given visibility class
/// reached the board.
pub fn visible_us(cov: &Coverage, vis: MaskVisibility) -> u64 {
    match vis {
        MaskVisibility::AllLevels => cov.covered_us,
        MaskVisibility::UnlessSwitchOnly => cov.level_us[0] + cov.level_us[1],
        MaskVisibility::AllOnly => cov.level_us[0],
    }
}

/// The factor that extrapolates an observed per-function count to the
/// whole timeline: timeline time over visible time.  `None` when the
/// class was never visible (nothing to extrapolate from).
pub fn scale_factor(cov: &Coverage, vis: MaskVisibility) -> Option<f64> {
    let vis_us = visible_us(cov, vis);
    if vis_us == 0 || cov.timeline_us == 0 {
        None
    } else {
        Some(cov.timeline_us as f64 / vis_us as f64)
    }
}

/// Estimated whole-timeline call count for `name`: observed calls
/// scaled by the coverage of the mask levels that admitted its tags.
/// `None` if the name is unknown or its class was never visible.
pub fn scaled_calls(
    tf: &TagFile,
    run: &SupervisedRun,
    r: &Reconstruction,
    name: &str,
) -> Option<f64> {
    let vis = visibility(tf, &run.hot_tags, name)?;
    let factor = scale_factor(&r.coverage, vis)?;
    let calls = r.agg(name)?.calls;
    Some(calls as f64 * factor)
}

/// The live stitch of a supervised run, installed as a
/// `CaptureSupervisor`'s session sink: each delivered bank is decoded
/// once into one shared event buffer and folded into a [`BankFold`] as
/// a summary whose trace stays pending on that buffer until read; the
/// buffer and every gap go on to a [`FlightRecorder`] (inert unless the
/// run records), whose windows share it.  Clones share state.
#[derive(Clone)]
pub struct SupervisedFold(Arc<Mutex<FoldState>>);

struct FoldState {
    table: DenseTagTable,
    syms: Symbols,
    fold: BankFold,
    recorder: FlightRecorder,
}

impl SupervisedFold {
    /// A strict fold over `tf`'s build, feeding `recorder`.
    pub fn new(tf: &TagFile, recorder: FlightRecorder) -> Self {
        let syms = Symbols::from_tagfile(tf);
        SupervisedFold(Arc::new(Mutex::new(FoldState {
            table: DenseTagTable::from_tagfile(tf),
            fold: BankFold::new(&syms),
            syms,
            recorder,
        })))
    }

    fn state(&self) -> MutexGuard<'_, FoldState> {
        self.0.lock().expect("fold lock")
    }

    /// Seals the recorder and returns the full-run profile, bit-identical
    /// to `Analyzer::for_tagfile(tf).run(run)`.  The fold starts over.
    pub fn finish(&self, run: &SupervisedRun) -> Reconstruction {
        let mut st = self.state();
        let fresh = BankFold::new(&st.syms);
        let mut profile = std::mem::replace(&mut st.fold, fresh).finish();
        profile.note_coverage(&run.coverage);
        st.recorder.seal(run);
        profile
    }
}

impl SessionSink for SupervisedFold {
    fn session(&mut self, session: &SupervisedSession) {
        let mut guard = self.state();
        let st = &mut *guard;
        if st.fold.holds(session.index) {
            return;
        }
        let mut bank = BankRecon::new(&st.table, &st.syms, false);
        let (part, events) = bank.bank_pending(&session.records);
        st.recorder.ingest_events(session, events);
        st.fold.insert(session.index, part);
    }

    fn gap(&mut self, gap: &Gap) {
        self.state().recorder.ingest_gap(gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_machine::EpromTap;
    use hwprof_profiler::{
        BankSink, BoardConfig, CaptureSupervisor, MemoryTransport, Profiler, RecorderConfig,
        RetryPolicy, SupervisorPolicy, TagMask, TagMaskLevel,
    };

    const TF: &str = "a/500\nb/502\nswtch/200!\n";

    /// A supervised run rolling through several banks, plus the live
    /// stitch its [`SupervisedFold`] sink produced.
    fn supervised_fixture() -> (TagFile, SupervisedRun, Reconstruction) {
        let tf = hwprof_tagfile::parse(TF).expect("static tag file");
        let (run, profile) = supervised_run(&tf, FlightRecorder::default());
        (tf, run, profile)
    }

    /// [`supervised_fixture`]'s run over `tf`, its fold feeding
    /// `recorder`.
    fn supervised_run(tf: &TagFile, recorder: FlightRecorder) -> (SupervisedRun, Reconstruction) {
        let board = Profiler::new(BoardConfig {
            capacity: 8,
            time_bits: 24,
        });
        let mask = TagMask::new([200u16]);
        let policy = SupervisorPolicy {
            drain_budget_us: 10,
            downgrade_fill_us: 0,
            max_session_us: u64::MAX,
            retry: RetryPolicy {
                max_attempts: 1,
                base_backoff_us: 1,
                max_backoff_us: 1,
                jitter_ppm: 0,
            },
            ..SupervisorPolicy::default()
        };
        let mut sup = CaptureSupervisor::new(board, mask, policy, Box::new(MemoryTransport::new()));
        let live = SupervisedFold::new(tf, recorder);
        sup.set_session_sink(Box::new(live.clone()));
        // Nested a{b{}} call pairs with occasional switches, enough to
        // roll through several banks.
        let mut t = 1_000u64;
        for i in 0..40u64 {
            sup.on_read(500, t);
            sup.on_read(502, t + 2);
            sup.on_read(503, t + 5);
            sup.on_read(501, t + 9);
            if i % 5 == 4 {
                sup.on_read(200, t + 11);
                sup.on_read(201, t + 14);
            }
            t += 20;
        }
        let run = sup.finish();
        let profile = live.finish(&run);
        (run, profile)
    }

    #[test]
    fn summary_reads_leave_the_main_trace_pending() {
        let tf = hwprof_tagfile::parse(TF).expect("static tag file");
        let cfg = RecorderConfig::builder().window_us(50).retain(64).build();
        let rec = FlightRecorder::new(&tf, cfg.expect("non-degenerate config"));
        let (run, profile) = supervised_run(&tf, rec.clone());
        let banks = run.sessions.len();
        assert!(banks > 1, "several banks");
        assert_eq!(profile.trace.pending_built(), vec![false; banks]);
        // Every summary read a `watch` run and its harness make.
        let cfg = crate::SentinelConfig::builder().warmup_windows(2).build();
        let mut sentinel = crate::Sentinel::new(cfg.expect("valid config"));
        sentinel.scan(&rec);
        assert!(sentinel.windows_evaluated() > 2);
        let p = crate::Profile::new(&profile).run(&run);
        assert!(p.summary_report(None).contains("Coverage:"));
        assert!(p.describe().contains("sessions"));
        assert!(!sentinel.describe().is_empty());
        let all = rec.retained();
        let range = rec.range(all.clone()).expect("retained");
        for w in all.clone() {
            assert!(rec.window(w).is_some(), "window {w} retained");
        }
        assert!(rec.diff(all.start, all.end - 1).is_some());
        assert_eq!(range.recon.tags, profile.tags);
        assert_eq!(
            profile.trace.pending_built(),
            vec![false; banks],
            "no summary read built a bank's trace"
        );
        // A render builds every bank's trace, with the eager bytes.
        let eager = crate::Analyzer::for_tagfile(&tf)
            .run(&run)
            .expect("ungated");
        let want = crate::Profile::new(&eager).run(&run).chrome_trace();
        assert_eq!(p.chrome_trace(), want);
        assert_eq!(profile.trace.pending_built(), vec![true; banks]);
    }

    #[test]
    fn stitched_charges_nothing_during_gaps() {
        let (tf, run, _) = supervised_fixture();
        assert!(run.sessions.len() > 1, "several banks");
        assert!(!run.gaps.is_empty());
        let r = crate::Analyzer::for_tagfile(&tf)
            .run(&run)
            .expect("ungated");
        // Elapsed is summed inside sessions only: it never exceeds the
        // covered time.
        assert!(r.total_elapsed <= run.coverage.covered_us);
        assert_eq!(r.sessions, run.sessions.len());
        assert_eq!(r.coverage, run.coverage);
        assert!(r.agg("a").expect("known").calls > 0);
    }

    #[test]
    fn three_stitch_paths_are_bit_identical() {
        let (tf, run, live) = supervised_fixture();
        let seq = crate::Analyzer::for_tagfile(&tf)
            .run(&run)
            .expect("ungated");
        assert_eq!(seq, live, "the live fold diverged");
        for workers in [1, 2, 3] {
            let a = crate::Analyzer::for_tagfile(&tf).workers(workers);
            let par = a.run(&run).expect("ungated");
            assert_eq!(seq, par, "parallel({workers}) diverged");
            let pipeline = crate::StreamAnalyzer::new(&tf, workers);
            let mut feed = pipeline.feed();
            for s in &run.sessions {
                assert!(feed.bank(s.records.clone()), "pipeline open");
            }
            drop(feed);
            let mut streamed = pipeline.finish().remove(&0).unwrap().profile;
            streamed.note_coverage(&run.coverage);
            assert_eq!(seq, streamed, "streaming({workers}) diverged");
        }
    }

    #[test]
    fn report_carries_coverage_block() {
        let (tf, run, _) = supervised_fixture();
        let r = crate::Analyzer::for_tagfile(&tf)
            .run(&run)
            .expect("ungated");
        let rep = crate::report::summary_report(&r, Some(5));
        assert!(rep.contains("Coverage:"), "report:\n{rep}");
        assert!(rep.contains("covered"));
    }

    #[test]
    fn visibility_classes_and_scaling() {
        let tf = hwprof_tagfile::parse(TF).expect("static tag file");
        let run = SupervisedRun {
            sessions: Vec::new(),
            gaps: Vec::new(),
            coverage: Coverage {
                timeline_us: 100,
                covered_us: 80,
                gap_us: 20,
                gaps: 1,
                level_us: [40, 30, 10],
                ..Coverage::empty()
            },
            final_level: TagMaskLevel::All,
            hot_tags: vec![502, 503],
        };
        assert_eq!(
            visibility(&tf, &run.hot_tags, "swtch"),
            Some(MaskVisibility::AllLevels)
        );
        assert_eq!(
            visibility(&tf, &run.hot_tags, "b"),
            Some(MaskVisibility::AllOnly),
            "b is in the hot set"
        );
        assert_eq!(
            visibility(&tf, &run.hot_tags, "a"),
            Some(MaskVisibility::UnlessSwitchOnly)
        );
        assert_eq!(visibility(&tf, &run.hot_tags, "nosuch"), None);
        assert_eq!(visible_us(&run.coverage, MaskVisibility::AllLevels), 80);
        assert_eq!(
            visible_us(&run.coverage, MaskVisibility::UnlessSwitchOnly),
            70
        );
        assert_eq!(visible_us(&run.coverage, MaskVisibility::AllOnly), 40);
        let f = scale_factor(&run.coverage, MaskVisibility::AllOnly).expect("visible");
        assert!((f - 2.5).abs() < 1e-9);
        // Nothing visible -> no extrapolation.
        let dark = Coverage {
            timeline_us: 100,
            gap_us: 100,
            gaps: 1,
            ..Coverage::empty()
        };
        assert_eq!(scale_factor(&dark, MaskVisibility::AllOnly), None);
    }

    #[test]
    fn scaled_calls_extrapolates_masked_functions() {
        let (tf, run, _) = supervised_fixture();
        let r = crate::Analyzer::for_tagfile(&tf)
            .run(&run)
            .expect("ungated");
        // Ladder disabled: everything ran at All, so scaling inflates
        // exactly by timeline/covered.
        let a_calls = r.agg("a").expect("known").calls as f64;
        let scaled = scaled_calls(&tf, &run, &r, "a").expect("visible");
        let expect = a_calls * run.coverage.timeline_us as f64 / run.coverage.covered_us as f64;
        assert!((scaled - expect).abs() < 1e-9);
        assert!(scaled >= a_calls);
    }
}

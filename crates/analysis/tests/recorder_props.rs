//! Flight-recorder property suite: for any seeded overflow/fault
//! schedule each retained window's rollup must be bit-identical to a
//! one-shot analysis of the same span, a range query must equal the
//! monoid fold of its windows, the eviction ledger must stay exact
//! (`covered + dark + evicted == elapsed`, zero slack), and diffs must
//! be antisymmetric.  A fold lent through `each_fold`, whose stats
//! vector is reused from window to window, must keep no row of the
//! window lent before it.  The run's live [`SupervisedFold`], which
//! feeds the recorder, must also stitch a full-run profile
//! bit-identical to the post-hoc `Analyzer::run` of the finished run.
//!
//! Runs at 256 cases per property (`PROPTEST_CASES` overrides); the CI
//! fault job pins exactly that.

use proptest::prelude::*;

use hwprof_analysis::graph::to_dot;
use hwprof_analysis::{
    Analyzer, ColumnarDecoder, DenseTagTable, Event, FlightRecorder, FnAgg, Profile,
    Reconstruction, SessionRecon, SupervisedFold, Symbols, WindowRollup,
};
use hwprof_machine::EpromTap;
use hwprof_profiler::{
    BoardConfig, CaptureSupervisor, Coverage, FlakyTransport, GapCause, MemoryTransport, Profiler,
    RawRecord, RecorderConfig, SupervisedRun, SupervisedSession, SupervisorPolicy, TagMask,
    TagMaskLevel,
};
use hwprof_tagfile::{TagFile, TagKind};

/// A tag file with `nfns` plain functions and one context-switch tag.
fn supervised_tagfile(nfns: u16) -> (TagFile, Vec<u16>, u16) {
    let mut tf = TagFile::new(500);
    let tags: Vec<u16> = (0..nfns)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    (tf, tags, swtch)
}

/// Drives a [`CaptureSupervisor`] through a random balanced call stream
/// over a deliberately tiny board, with a [`SupervisedFold`] feeding a
/// [`FlightRecorder`] as its live session sink, then finishes the fold
/// (sealing the recorder) on the finished run.  The fold and the
/// recorder therefore see sessions in *delivery* order — spill-shelf
/// permutations included — while the returned run holds them in bank
/// order for the one-shot oracles.  `pace` scales the ops' time steps
/// (see [`pace`]).  Returns the fold's full-run profile last.
#[allow(clippy::too_many_arguments)]
fn drive_recorded(
    nfns: u16,
    ops: &[(u8, u8)],
    pace: (u64, u64),
    policy: SupervisorPolicy,
    capacity: usize,
    fail_ppm: u32,
    outage: Option<(u64, u64)>,
    seed: u64,
    cfg: RecorderConfig,
) -> (TagFile, SupervisedRun, FlightRecorder, Reconstruction) {
    let (tf, tags, swtch) = supervised_tagfile(nfns);
    let board = Profiler::new(BoardConfig {
        capacity,
        time_bits: 24,
    });
    let mask = TagMask::new([swtch]);
    let mut transport = FlakyTransport::new(MemoryTransport::new(), fail_ppm, seed);
    if let Some((start, end)) = outage {
        transport = transport.with_outage(start, end.max(start));
    }
    let mut sup = CaptureSupervisor::new(board, mask, policy, Box::new(transport));
    let rec = FlightRecorder::new(&tf, cfg);
    let live = SupervisedFold::new(&tf, rec.clone());
    sup.set_session_sink(Box::new(live.clone()));
    let mut stack: Vec<u16> = Vec::new();
    let mut t = 1_000u64;
    let mut tick = pace.0;
    for (i, &(sel, dt)) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            tick = pace.1;
        }
        t += (u64::from(dt) + 1) * tick;
        if sel % 3 == 0 && !stack.is_empty() {
            let tag = stack.pop().expect("checked");
            sup.on_read(tag + 1, t);
        } else if stack.len() < 10 {
            let tag = tags[sel as usize % tags.len()];
            stack.push(tag);
            sup.on_read(tag, t);
        }
        if i % 13 == 12 {
            t += 2 * tick;
            sup.on_read(swtch, t);
            t += 2 * tick;
            sup.on_read(swtch + 1, t);
        }
    }
    for tag in stack.into_iter().rev() {
        t += 3 * tick;
        sup.on_read(tag + 1, t);
    }
    let run = sup.finish();
    let profile = live.finish(&run);
    (tf, run, rec, profile)
}

/// Microseconds per unit of op spacing over the first and the second
/// half of a stream, each `25 << k` for `k` in 0..10: at the fast end
/// a bank of any drawn capacity fills in well under the ladder's 200 ms
/// floor and many banks pile onto the shelf within one 250 ms breaker
/// cooldown; at the slow end a bank fills in well over the ladder's
/// 800 ms ceiling, so a stream that slows down steps the mask back up.
fn pace() -> impl Strategy<Value = (u64, u64)> {
    (0u32..10, 0u32..10).prop_map(|(a, b)| (25 << a, 25 << b))
}

/// The policy the proptest inputs shape: a swap's dark time and the
/// jitter seed.
fn policy(drain_budget_us: u64, seed: u64) -> SupervisorPolicy {
    SupervisorPolicy {
        drain_budget_us,
        min_coverage_ppm: 0,
        seed,
        ..SupervisorPolicy::default()
    }
}

/// A recorder config straight from the builder (also exercising it).
fn config(window_us: u64, retain: usize) -> RecorderConfig {
    RecorderConfig::builder()
        .window_us(window_us)
        .retain(retain)
        .build()
        .expect("non-degenerate config")
}

/// The one-shot oracle for one retained window: decode every session of
/// the *finished* run in bank order, keep only the events falling in
/// the window, rebase them to the window origin and fold them through
/// the same strict reconstruction any batch analysis uses; then build
/// the window's coverage directly from the run's session/gap spans.
fn window_oracle(
    tf: &TagFile,
    run: &SupervisedRun,
    rollup: &WindowRollup,
    wd: u64,
) -> Reconstruction {
    let table = DenseTagTable::from_tagfile(tf);
    let syms = Symbols::from_tagfile(tf);
    let w = rollup.index;
    let lo = w * wd;
    let hi = lo + wd;
    let (ws, we) = (rollup.start_us, rollup.end_us);
    let mut out = Reconstruction::empty(syms.clone());
    let mut recon = SessionRecon::new(&syms, false);
    for s in &run.sessions {
        let mut decoder = ColumnarDecoder::new(&table);
        let mut events = Vec::new();
        decoder.extend(&s.records, &mut events);
        let frag: Vec<Event> = events
            .iter()
            .filter(|e| {
                let t = s.start_us + e.t;
                lo <= t && t < hi
            })
            .map(|e| Event {
                t: s.start_us + e.t - lo,
                kind: e.kind,
            })
            .collect();
        if !frag.is_empty() {
            recon.session_into(&frag, &mut out);
        }
        let anoms = decoder.anomalies();
        if !anoms.is_clean() && s.start_us / wd == w {
            out.note(&anoms);
        }
    }
    let mut cov = Coverage::empty();
    cov.timeline_us = we - ws;
    for s in &run.sessions {
        let a = s.start_us.max(ws);
        let b = s.end_us.min(we);
        if b > a {
            cov.covered_us += b - a;
            cov.level_us[s.level.idx()] += b - a;
        }
    }
    cov.gap_us = cov.timeline_us - cov.covered_us;
    for g in &run.gaps {
        if g.end_us > g.start_us && g.start_us / wd <= w && w <= (g.end_us - 1) / wd {
            cov.gaps += 1;
            if g.cause == GapCause::Overflow {
                cov.overflow_gaps += 1;
            }
        }
    }
    out.note_coverage(&cov);
    out
}

/// Each retained window's fold as `each_fold` lends it, paired with its
/// one-shot oracle.
fn lent_and_oracles(
    tf: &TagFile,
    run: &SupervisedRun,
    rec: &FlightRecorder,
    wd: u64,
) -> Vec<(u64, Reconstruction, Reconstruction)> {
    let mut lent = Vec::new();
    rec.each_fold(rec.retained(), |w, _, r| lent.push((w, r.clone())));
    lent.into_iter()
        .map(|(w, r)| {
            let rollup = rec.window(w).expect("lent, so retained");
            (w, r, window_oracle(tf, run, &rollup, wd))
        })
        .collect()
}

#[test]
fn a_lent_view_keeps_no_row_of_the_window_before() {
    let (tf, tags, _) = supervised_tagfile(2);
    let rec = FlightRecorder::new(&tf, config(100, 8));
    // f0 runs only in window 0, f1 only in window 1.
    let records = [
        (tags[0], 10),
        (tags[0] + 1, 40),
        (tags[1], 120),
        (tags[1] + 1, 150),
    ]
    .map(|(tag, time)| RawRecord { tag, time });
    let session = SupervisedSession {
        index: 0,
        start_us: 0,
        end_us: 200,
        level: TagMaskLevel::All,
        records: records.to_vec(),
    };
    rec.ingest_session(&session);
    let run = SupervisedRun {
        sessions: vec![session],
        gaps: Vec::new(),
        coverage: Coverage {
            timeline_us: 200,
            covered_us: 200,
            level_us: [200, 0, 0],
            ..Coverage::empty()
        },
        final_level: TagMaskLevel::All,
        hot_tags: Vec::new(),
    };
    rec.seal(&run);
    let lent = lent_and_oracles(&tf, &run, &rec, 100);
    assert_eq!(lent.len(), 2);
    assert_eq!(lent[0].1.agg("f0").expect("known").calls, 1);
    assert_eq!(
        lent[1].1.agg("f0"),
        Some(FnAgg::default()),
        "f0 left window 0"
    );
    for (w, r, oracle) in lent {
        assert!(
            r == oracle,
            "window {w} lent other than its one-shot analysis"
        );
    }
}

/// Every byte-level render of a rollup's profile: Chrome, speedscope,
/// folded and dot.
fn renders(p: Profile) -> [String; 4] {
    [
        p.chrome_trace(),
        p.speedscope(),
        p.folded(),
        to_dot(p.reconstruction()),
    ]
}

proptest! {
    #![cases(256)]

    /// Every retained window's rollup is bit-identical — stats, trace,
    /// anomalies, coverage, the whole monoid — to a one-shot analysis
    /// of the same clipped span, no matter how overflows, faults and
    /// the spill shelf sliced and permuted delivery, and renders its
    /// bytes when its pending trace is first read.  Querying twice is
    /// also bit-stable (the fold cache is invisible).
    #[test]
    fn window_rollup_matches_one_shot_analysis(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        pace in pace(),
        drain_budget in 1u64..150,
        fail_ppm in 0u32..800_000,
        window in 40u64..400,
        retain in 2usize..32,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(drain_budget * pace.0, seed);
        let window_us = window * pace.0;
        let cfg = config(window_us, retain);
        let (tf, run, rec, _) =
            drive_recorded(nfns, &ops, pace, pol, capacity, fail_ppm, None, seed, cfg);
        for w in rec.retained() {
            let rollup = rec.window(w);
            prop_assert!(rollup.is_some(), "retained window {w} not foldable");
            let rollup = rollup.expect("checked");
            let oracle = window_oracle(&tf, &run, &rollup, window_us);
            let named = Profile::new(&oracle).name(&format!("window {w}"));
            prop_assert!(
                renders(rollup.as_profile()) == renders(named),
                "window {w} renders other bytes than its one-shot analysis"
            );
            prop_assert!(
                rollup.recon == oracle,
                "window {w} diverged from its one-shot analysis"
            );
            let again = rec.window(w).expect("still retained");
            prop_assert!(again.recon == rollup.recon, "window {w} query unstable");
        }
    }

    /// A range query is exactly the monoid fold of its windows, and the
    /// full retained range reproduces every per-function total summed
    /// across windows.
    #[test]
    fn range_query_is_the_fold_of_its_windows(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        pace in pace(),
        fail_ppm in 0u32..700_000,
        window in 40u64..400,
        retain in 2usize..32,
        lo_sel in 0u64..64,
        hi_sel in 0u64..64,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(30 * pace.0, seed);
        let cfg = config(window * pace.0, retain);
        let (_tf, _run, rec, _) =
            drive_recorded(nfns, &ops, pace, pol, capacity, fail_ppm, None, seed, cfg);
        let retained = rec.retained();
        prop_assume!(!retained.is_empty());
        let span = retained.end - retained.start;
        let mut a = retained.start + lo_sel % span;
        let mut b = retained.start + hi_sel % span;
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let b = b + 1; // half-open, non-empty
        let merged = rec.range(a..b).expect("in-ring range");
        let mut fold = rec.window(a).expect("retained").recon;
        for w in a + 1..b {
            fold.merge(rec.window(w).expect("retained").recon);
        }
        prop_assert!(merged.recon == fold, "range {a}..{b} diverged from window fold");
        prop_assert_eq!(merged.index, a);
        // Out-of-ring ranges refuse rather than silently truncate.
        prop_assert!(rec.range(retained.end..retained.end + 1).is_none());
        prop_assert!(rec.range(a..a).is_none());
    }

    /// Every window's fold lent through `each_fold`, and `range` over
    /// any sub-range, equal the dense one-shot folds: the sparse rows
    /// a fold keeps and the view they are lent through hide nothing
    /// and carry nothing over from the window before.
    #[test]
    fn lent_folds_and_ranges_match_the_dense_one_shot_fold(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        pace in pace(),
        fail_ppm in 0u32..700_000,
        window in 40u64..400,
        retain in 2usize..32,
        lo_sel in 0u64..64,
        hi_sel in 0u64..64,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(30 * pace.0, seed);
        let window_us = window * pace.0;
        let cfg = config(window_us, retain);
        let (tf, run, rec, _) =
            drive_recorded(nfns, &ops, pace, pol, capacity, fail_ppm, None, seed, cfg);
        let retained = rec.retained();
        let lent = lent_and_oracles(&tf, &run, &rec, window_us);
        prop_assert_eq!(lent.len() as u64, retained.end - retained.start);
        for (w, r, oracle) in &lent {
            prop_assert!(r == oracle, "window {w} lent other than its one-shot analysis");
        }
        prop_assume!(!retained.is_empty());
        let span = retained.end - retained.start;
        let mut a = lo_sel % span;
        let mut b = hi_sel % span;
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let mut oracles = lent.into_iter().map(|(_, _, oracle)| oracle);
        let mut want = oracles.nth(a as usize).expect("in ring");
        for oracle in oracles.take((b - a) as usize) {
            want.merge(oracle);
        }
        let (a, b) = (retained.start + a, retained.start + b + 1);
        let got = rec.range(a..b).expect("in-ring range");
        prop_assert!(got.recon == want, "range {a}..{b} diverged from the one-shot folds");
    }

    /// The eviction ledger is exact at seal for any schedule — faults,
    /// outages, retention small enough to force evictions: retained
    /// covered + retained dark + evicted spans partition the elapsed
    /// timeline with zero slack, and the window count agrees with the
    /// query surface.
    #[test]
    fn ledger_stays_exact_under_eviction_and_faults(
        nfns in 1u16..4,
        ops in prop::collection::vec((0u8..=255, 0u8..25), 20..250),
        capacity in 4usize..12,
        pace in pace(),
        fail_ppm in 0u32..800_000,
        outage_start in 0u64..6,
        outage_len in 0u64..24,
        window in 20u64..120,
        retain in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(20 * pace.0, seed);
        let cfg = config(window * pace.0, retain);
        let outage = (outage_len > 0).then_some((outage_start, outage_start + outage_len));
        let (_tf, run, rec, _) =
            drive_recorded(nfns, &ops, pace, pol, capacity, fail_ppm, outage, seed, cfg);
        let ledger = rec.ledger();
        prop_assert!(
            ledger.is_exact(),
            "ledger broke: {}",
            ledger.describe()
        );
        let retained = rec.retained();
        prop_assert_eq!(ledger.windows, retained.end - retained.start);
        prop_assert!(ledger.windows <= retain as u64);
        // The retained ring never out-claims the run's own ledger.
        prop_assert!(ledger.covered_us <= run.coverage.covered_us);
        // Folding every window must not perturb the ledger.
        for w in retained {
            let _ = rec.window(w);
        }
        prop_assert_eq!(rec.ledger(), ledger);
    }

    /// The live fold's full-run profile is bit-identical to the
    /// post-hoc stitch of the finished run under every seeded fail and
    /// outage schedule: delivery permuted by the spill shelf, banks
    /// lost for good (permanent holes in the index sequence), the mask
    /// ladder moving.  Each bank was decoded once, as it arrived.
    #[test]
    fn live_fold_matches_the_post_hoc_stitch(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        pace in pace(),
        drain_budget in 1u64..150,
        fail_ppm in 0u32..800_000,
        outage_start in 0u64..6,
        outage_len in 0u64..24,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(drain_budget * pace.0, seed);
        let outage = (outage_len > 0).then_some((outage_start, outage_start + outage_len));
        let cfg = config(100 * pace.0, 8);
        let (tf, run, rec, live) =
            drive_recorded(nfns, &ops, pace, pol, capacity, fail_ppm, outage, seed, cfg);
        let stitched = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        prop_assert!(live == stitched, "live fold diverged from Analyzer::run");
        prop_assert_eq!(rec.sessions(), run.sessions.len() as u64);
    }

    /// Diffs are antisymmetric: `diff(b, a)` is `diff(a, b)` with every
    /// exact delta negated, the two sides swapped, and the identical
    /// row ranking (`|d_net|` is direction-blind).
    #[test]
    fn diff_is_antisymmetric(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        pace in pace(),
        fail_ppm in 0u32..700_000,
        window in 40u64..400,
        retain in 2usize..32,
        a_sel in 0u64..64,
        b_sel in 0u64..64,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(30 * pace.0, seed);
        let cfg = config(window * pace.0, retain);
        let (_tf, _run, rec, _) =
            drive_recorded(nfns, &ops, pace, pol, capacity, fail_ppm, None, seed, cfg);
        let retained = rec.retained();
        prop_assume!(!retained.is_empty());
        let span = retained.end - retained.start;
        let a = retained.start + a_sel % span;
        let b = retained.start + b_sel % span;
        let fwd = rec.diff(a, b).expect("both retained");
        let rev = rec.diff(b, a).expect("both retained");
        prop_assert_eq!(fwd.a_span, rev.b_span);
        prop_assert_eq!(fwd.b_span, rev.a_span);
        prop_assert_eq!(fwd.d_anomalies, -rev.d_anomalies);
        prop_assert_eq!(fwd.rows.len(), rev.rows.len());
        for (f, r) in fwd.rows.iter().zip(&rev.rows) {
            prop_assert!(f.name == r.name, "row ranking diverged between directions");
            prop_assert_eq!(f.a, r.b);
            prop_assert_eq!(f.b, r.a);
            prop_assert_eq!(f.d_calls, -r.d_calls);
            prop_assert_eq!(f.d_net, -r.d_net);
            prop_assert_eq!(f.d_elapsed, -r.d_elapsed);
            prop_assert_eq!(f.d_inline, -r.d_inline);
            prop_assert_eq!(f.a_rate, r.b_rate);
            prop_assert_eq!(f.b_rate, r.a_rate);
        }
        // A self-diff is all zeros and never ranks a mover.
        let zero = rec.diff(a, a).expect("retained");
        prop_assert_eq!(zero.d_anomalies, 0);
        for row in &zero.rows {
            prop_assert_eq!(row.d_net, 0);
            prop_assert_eq!(row.d_calls, 0);
        }
        prop_assert!(zero.movers(usize::MAX).is_empty());
        // An evicted window refuses to diff.
        prop_assert!(rec.diff(a, rec.retained().end).is_none());
    }
}

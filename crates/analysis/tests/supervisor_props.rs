//! Supervised-capture property suite: for any seeded overflow/retry
//! schedule the coverage ledger must partition the timeline exactly,
//! the three stitch paths must agree bit-for-bit, and the EE-PAL mask
//! (a pure filter) must never *increase* what the analysis counts.
//!
//! Runs at 256 cases per property (`PROPTEST_CASES` overrides); the CI
//! fault job pins exactly that.

use proptest::prelude::*;

use hwprof_analysis::{Analyzer, Reconstruction, SessionDecoder, StreamAnalyzer, Symbols, TagMap};
use hwprof_machine::EpromTap;
use hwprof_profiler::{
    BankSink, BoardConfig, CaptureSupervisor, FlakyTransport, MemoryTransport, Profiler, RawRecord,
    RetryPolicy, SupervisedRun, SupervisorPolicy, TagMask, TagMaskLevel,
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
/// (entries/exits with strictly increasing simulated time, periodic
/// context switches) over a deliberately tiny board, so overflows,
/// re-arms, retries and ladder moves all happen.
#[allow(clippy::too_many_arguments)]
fn drive_supervised(
    nfns: u16,
    ops: &[(u8, u8)],
    policy: SupervisorPolicy,
    capacity: usize,
    fail_ppm: u32,
    outage: Option<(u64, u64)>,
    seed: u64,
    telemetry: Option<&hwprof_telemetry::Registry>,
) -> (TagFile, SupervisedRun) {
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
    if let Some(reg) = telemetry {
        sup.set_telemetry(reg);
    }
    let mut stack: Vec<u16> = Vec::new();
    let mut t = 1_000u64;
    for (i, &(sel, dt)) in ops.iter().enumerate() {
        t += u64::from(dt) + 1;
        if sel % 3 == 0 && !stack.is_empty() {
            let tag = stack.pop().expect("checked");
            sup.on_read(tag + 1, t);
        } else if stack.len() < 10 {
            let tag = tags[sel as usize % tags.len()];
            stack.push(tag);
            sup.on_read(tag, t);
        }
        if i % 13 == 12 {
            t += 2;
            sup.on_read(swtch, t);
            t += 2;
            sup.on_read(swtch + 1, t);
        }
    }
    for tag in stack.into_iter().rev() {
        t += 3;
        sup.on_read(tag + 1, t);
    }
    (tf, sup.finish())
}

/// A small, fast-moving policy shaped by the proptest inputs.
#[allow(clippy::too_many_arguments)]
fn policy(
    drain_budget_us: u64,
    max_attempts: u32,
    spill_banks: usize,
    ladder: bool,
    breaker_cooldown_us: u64,
    jitter_ppm: u32,
    seed: u64,
) -> SupervisorPolicy {
    SupervisorPolicy {
        drain_budget_us,
        max_session_us: u64::MAX,
        retry: RetryPolicy {
            max_attempts,
            base_backoff_us: 7,
            max_backoff_us: 60,
            jitter_ppm,
        },
        breaker_cooldown_us,
        spill_banks,
        downgrade_fill_us: if ladder { 300 } else { 0 },
        upgrade_fill_us: 2_000,
        auto_hot_top: 2,
        min_coverage_ppm: 0,
        seed,
        ..SupervisorPolicy::default()
    }
}

/// The streaming stitch through the public pipeline: each delivered
/// bank fed in order, the run's coverage folded in after `finish`.
fn stream_stitch(
    tf: &TagFile,
    run: &SupervisedRun,
    workers: usize,
    telemetry: Option<&hwprof_telemetry::Registry>,
) -> Reconstruction {
    let reg = telemetry.cloned().unwrap_or_default();
    let inert = hwprof_telemetry::SpanLog::default();
    let pipeline = StreamAnalyzer::spawn(tf, workers, false, &reg, &inert);
    let mut feed = pipeline.feed();
    for s in &run.sessions {
        assert!(feed.bank(s.records.clone()), "pipeline open");
    }
    drop(feed);
    let mut r = pipeline.finish().remove(&0).unwrap().profile;
    r.note_coverage(&run.coverage);
    r
}

/// Merged strict reconstruction of pre-filtered banks — the fixed-bank
/// formulation the mask-monotonicity property uses.
fn reconstruct_filtered(
    tf: &TagFile,
    banks: &[Vec<RawRecord>],
    mask: &TagMask,
    level: TagMaskLevel,
) -> Reconstruction {
    let map = TagMap::from_tagfile(tf);
    let syms = Symbols::from_tagfile(tf);
    let mut out = Reconstruction::empty(syms.clone());
    for bank in banks {
        let filtered = mask.filter(level, bank);
        let mut decoder = SessionDecoder::new(&map);
        let mut events = Vec::new();
        decoder.extend(&filtered, &mut events);
        out.merge(Analyzer::new(&syms).session(&events).expect("ungated"));
    }
    out
}

proptest! {
    #![cases(256)]

    /// For any seeded overflow/retry/outage schedule, the coverage
    /// ledger partitions the timeline exactly: covered + gap time
    /// equals the first-to-last-trigger span (the "within one tick"
    /// acceptance bound is met with zero slack), the per-level time
    /// sums to the covered time, and the structural counts agree with
    /// the session/gap lists.
    #[test]
    fn coverage_partitions_the_timeline(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..300),
        capacity in 4usize..24,
        drain_budget in 1u64..200,
        attempts in 1u32..4,
        spill in 0usize..4,
        ladder_sel in 0u8..2,
        cooldown in 0u64..400,
        jitter in 0u32..500_000,
        fail_ppm in 0u32..400_000,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(drain_budget, attempts, spill, ladder_sel == 1, cooldown, jitter, seed);
        let (_tf, run) = drive_supervised(nfns, &ops, pol, capacity, fail_ppm, None, seed, None);
        let cov = run.coverage;
        prop_assert!(
            cov.covered_us + cov.gap_us == cov.timeline_us,
            "covered {} + gap {} != timeline {}",
            cov.covered_us, cov.gap_us, cov.timeline_us
        );
        prop_assert_eq!(cov.level_us.iter().sum::<u64>(), cov.covered_us);
        prop_assert_eq!(cov.gaps, run.gaps.len() as u64);
        prop_assert!(cov.fraction() >= 0.0 && cov.fraction() <= 1.0);
        // Sessions arrive sorted by bank index with sane spans, and
        // every delivered span is inside the timeline.
        for w in run.sessions.windows(2) {
            prop_assert!(w[0].index < w[1].index);
        }
        for s in &run.sessions {
            prop_assert!(s.start_us <= s.end_us);
        }
        for g in &run.gaps {
            prop_assert!(g.start_us <= g.end_us);
        }
        // The session list never over-claims: delivered spans alone
        // cannot exceed the covered total (idle spans fill the rest).
        let delivered: u64 = run.sessions.iter().map(|s| s.span_us()).sum();
        prop_assert!(delivered <= cov.covered_us);
    }

    /// The three stitch flavours — sequential fold, parallel fan-out,
    /// streaming pipeline — are bit-identical on any supervised run,
    /// for any worker count.
    #[test]
    fn stitch_paths_are_bit_identical(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        ladder_sel in 0u8..2,
        fail_ppm in 0u32..300_000,
        workers in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(25, 2, 2, ladder_sel == 1, 100, 0, seed);
        let (tf, run) = drive_supervised(nfns, &ops, pol, capacity, fail_ppm, None, seed, None);
        let seq = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        let a = Analyzer::for_tagfile(&tf).workers(workers);
        let par = a.run(&run).expect("ungated");
        prop_assert!(seq == par, "parallel({workers}) diverged");
        let streamed = stream_stitch(&tf, &run, workers, None);
        prop_assert!(seq == streamed, "streaming({workers}) diverged");
    }

    /// The EE-PAL mask is a pure filter: over fixed, call-aligned bank
    /// boundaries, stepping the ladder down never increases any
    /// per-function call count (or the total tag count) — each level's
    /// stream is a subset of the level above it.  (Boundaries must be
    /// call-aligned for the *reconstructed* counts to be comparable:
    /// cutting mid-call moves orphan entries/exits between banks, and
    /// the resynchronizer may then pair them differently per level.)
    #[test]
    fn mask_downgrades_never_increase_call_counts(
        nfns in 1u16..6,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 4..250),
        cuts in prop::collection::vec(0usize..1000, 0..5),
        hot_pick in 0u16..6,
    ) {
        let (tf, tags, swtch) = supervised_tagfile(nfns);
        // A balanced record stream; context switches and bank-cut
        // candidates only at stack depth zero.
        let mut records = Vec::new();
        let mut stack: Vec<u16> = Vec::new();
        let mut safe_cuts: Vec<usize> = Vec::new();
        let mut t = 0u64;
        for (i, &(sel, dt)) in ops.iter().enumerate() {
            t += u64::from(dt) + 1;
            if sel % 3 == 0 && !stack.is_empty() {
                let tag = stack.pop().expect("checked");
                records.push(RawRecord::latch(tag + 1, t));
            } else if stack.len() < 10 {
                let tag = tags[sel as usize % tags.len()];
                stack.push(tag);
                records.push(RawRecord::latch(tag, t));
            }
            if stack.is_empty() {
                safe_cuts.push(records.len());
                if i % 11 == 10 {
                    t += 2;
                    records.push(RawRecord::latch(swtch, t));
                    t += 2;
                    records.push(RawRecord::latch(swtch + 1, t));
                    safe_cuts.push(records.len());
                }
            }
        }
        for tag in stack.into_iter().rev() {
            t += 3;
            records.push(RawRecord::latch(tag + 1, t));
        }
        prop_assume!(records.len() >= 4);
        // Fixed bank boundaries drawn from the call-aligned points.
        let mut bounds: Vec<usize> = cuts
            .iter()
            .filter(|_| !safe_cuts.is_empty())
            .map(|c| safe_cuts[c % safe_cuts.len()])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut banks: Vec<Vec<RawRecord>> = Vec::new();
        let mut prev = 0;
        for p in bounds.into_iter().chain([records.len()]) {
            if p < prev {
                continue;
            }
            banks.push(records[prev..p].to_vec());
            prev = p;
        }
        let mut mask = TagMask::new([swtch]);
        mask.set_hot([tags[hot_pick as usize % tags.len()]]);
        let all = reconstruct_filtered(&tf, &banks, &mask, TagMaskLevel::All);
        let hot = reconstruct_filtered(&tf, &banks, &mask, TagMaskLevel::HotMasked);
        let only = reconstruct_filtered(&tf, &banks, &mask, TagMaskLevel::SwitchOnly);
        prop_assert!(hot.tags <= all.tags);
        prop_assert!(only.tags <= hot.tags);
        for i in 0..nfns {
            let name = format!("f{i}");
            let calls = |r: &Reconstruction| r.agg(&name).map(|a| a.calls).unwrap_or(0);
            prop_assert!(
                calls(&hot) <= calls(&all),
                "{name}: HotMasked {} > All {}", calls(&hot), calls(&all)
            );
            prop_assert!(
                calls(&only) <= calls(&hot),
                "{name}: SwitchOnly {} > HotMasked {}", calls(&only), calls(&hot)
            );
        }
    }

    /// A scripted hard outage exercises retry, spill and the breaker
    /// without breaking the timeline partition or stitch agreement.
    #[test]
    fn outages_keep_the_ledger_consistent(
        nfns in 1u16..4,
        ops in prop::collection::vec((0u8..=255, 0u8..25), 20..250),
        capacity in 4usize..12,
        outage_start in 0u64..6,
        outage_len in 1u64..8,
        spill in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(20, 2, spill, false, 50, 0, seed);
        let (tf, run) = drive_supervised(
            nfns,
            &ops,
            pol,
            capacity,
            0,
            Some((outage_start, outage_start + outage_len)),
            seed,
            None,
        );
        let cov = run.coverage;
        prop_assert_eq!(cov.covered_us + cov.gap_us, cov.timeline_us);
        // A lost bank must be accounted: the BankLost gap count in the
        // gap list matches the ledger.
        let lost_gaps = run
            .gaps
            .iter()
            .filter(|g| g.cause == hwprof_profiler::GapCause::BankLost)
            .count() as u64;
        prop_assert_eq!(lost_gaps, cov.banks_lost);
        let seq = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        let par = Analyzer::for_tagfile(&tf).workers(3).run(&run).expect("ungated");
        prop_assert_eq!(seq, par);
    }

    /// Telemetry is exact, not approximate: for any seeded
    /// fault/overflow schedule, the supervisor's live counters agree
    /// with the [`Coverage`] ledger on every paired metric
    /// ([`hwprof_profiler::HealthReport`]), and the streaming
    /// pipeline's counters agree with the merged reconstruction's
    /// per-class [`hwprof_analysis::Anomalies`] totals field for field.
    #[test]
    fn telemetry_agrees_with_ledger_and_anomalies(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..250),
        capacity in 4usize..20,
        drain_budget in 1u64..120,
        attempts in 1u32..4,
        spill in 0usize..3,
        ladder_sel in 0u8..2,
        fail_ppm in 0u32..400_000,
        workers in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(drain_budget, attempts, spill, ladder_sel == 1, 80, 0, seed);
        let reg = hwprof_telemetry::Registry::new();
        let (tf, run) = drive_supervised(
            nfns, &ops, pol, capacity, fail_ppm, None, seed, Some(&reg),
        );
        let report = hwprof_profiler::HealthReport::new(reg.snapshot(), run.coverage);
        prop_assert!(
            report.is_consistent(),
            "live metrics diverged from the ledger: {:?}",
            report.discrepancies()
        );
        // The streaming pipeline's counters against the merged result.
        let sreg = hwprof_telemetry::Registry::new();
        let r = stream_stitch(&tf, &run, workers, Some(&sreg));
        let snap = sreg.snapshot();
        prop_assert_eq!(snap.value("stream.banks"), Some(run.sessions.len() as u64));
        prop_assert_eq!(snap.value("stream.events"), Some(r.tags as u64));
        prop_assert_eq!(snap.value("stream.queue_depth"), Some(0));
        for (name, ledger) in [
            ("stream.anomalies.orphan_exits", r.anomalies.orphan_exits),
            ("stream.anomalies.unmatched_entries", r.anomalies.unmatched_entries),
            ("stream.anomalies.unknown_tags", r.anomalies.unknown_tags),
            ("stream.anomalies.time_jumps", r.anomalies.time_jumps),
            ("stream.anomalies.duplicates", r.anomalies.duplicates),
            ("stream.anomalies.truncations", r.anomalies.truncations),
        ] {
            prop_assert!(
                snap.value(name) == Some(ledger),
                "{name}: metric {:?} vs ledger {ledger}",
                snap.value(name)
            );
        }
    }
}

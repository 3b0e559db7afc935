//! Fault-injection property suite: the decode → reconstruct → report
//! pipeline must never panic on corrupted input, must agree with
//! itself across batch/streaming paths, and must keep its
//! numbers inside the uncorrupted session's bounds.
//!
//! Runs at 256 cases per property (`PROPTEST_CASES` overrides); the CI
//! fault job pins exactly that.

use proptest::prelude::*;

use hwprof_analysis::anomaly::Anomalies;
use hwprof_analysis::{
    decode_recovering, summary_report,
    trace::{trace_report, TraceStyle},
    Analyzer, Reconstruction, StreamAnalyzer, Symbols,
};
use hwprof_profiler::{
    parse_raw_lossy, serialize_raw, FaultInjector, FaultSpec, RawRecord, TIME_MASK,
};
use hwprof_tagfile::{TagFile, TagKind};

/// A structurally valid single-thread capture: random nesting of `nfns`
/// functions with strictly increasing times (same shape as the lib
/// proptests' generator — the clean baseline the faults corrupt).
fn balanced_stream(nfns: u16, ops: &[(u8, u8)]) -> (TagFile, Vec<RawRecord>) {
    let mut tf = TagFile::new(100);
    let tags: Vec<u16> = (0..nfns)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let mut records = Vec::new();
    let mut stack: Vec<u16> = Vec::new();
    let mut t = 0u64;
    for &(sel, dt) in ops {
        t += u64::from(dt) + 1;
        if sel % 3 == 0 && !stack.is_empty() {
            let tag = stack.pop().expect("checked");
            records.push(RawRecord::latch(tag + 1, t));
        } else if stack.len() < 12 {
            let tag = tags[sel as usize % tags.len()];
            stack.push(tag);
            records.push(RawRecord::latch(tag, t));
        }
    }
    for tag in stack.into_iter().rev() {
        t += 3;
        records.push(RawRecord::latch(tag + 1, t));
    }
    (tf, records)
}

/// Batch recovery analysis over banks, exactly as the recovering
/// [`StreamAnalyzer`] workers do it: per-bank tolerant decode +
/// resynchronizing reconstruction, decode anomalies noted per bank,
/// merged in bank order.
fn batch_recovering(tf: &TagFile, banks: &[Vec<RawRecord>]) -> Reconstruction {
    let syms = Symbols::from_tagfile(tf);
    let mut out = Reconstruction::empty(syms);
    for bank in banks {
        let (s, events, anoms) = decode_recovering(bank, tf);
        let mut r = Analyzer::new(&s)
            .recovering(true)
            .session(&events)
            .expect("ungated");
        r.note(&anoms);
        out.merge(r);
    }
    out
}

proptest! {
    #![cases(256)]

    /// Arbitrary byte soup — not even record-aligned — decodes without
    /// panicking, and the full reconstruct/report/trace pipeline
    /// survives the result.
    #[test]
    fn byte_soup_never_panics_anywhere(
        bytes in prop::collection::vec(0u8..=255, 0..400),
    ) {
        let (batch, trailing) = parse_raw_lossy(&bytes);
        let tf = hwprof_tagfile::parse("a/100\nb/102\nswtch/200!\nMARK/300=\n")
            .expect("static tag file");
        let (syms, events, anoms) = decode_recovering(&batch, &tf);
        let mut r = Analyzer::new(&syms).recovering(true).session(&events).expect("ungated");
        r.note(&anoms);
        if trailing > 0 {
            r.note(&Anomalies { truncations: 1, ..Anomalies::default() });
        }
        let report = summary_report(&r, Some(20));
        prop_assert!(report.contains("Elapsed time"));
        let trace = trace_report(&r, &TraceStyle::default());
        prop_assert!(trace.len() < usize::MAX); // rendered without panic
    }

    /// Any seeded fault schedule over a clean session: recovery-mode
    /// reconstruction never panics, `run_time` stays within the
    /// session's elapsed time, and elapsed time stays within the clean
    /// session's bound plus the worst time-flip slack.
    #[test]
    fn faulted_reconstruction_never_panics_and_stays_bounded(
        nfns in 1u16..6,
        ops in prop::collection::vec((0u8..=255, 0u8..40), 4..250),
        drop_ppm in 0u32..200_000,
        stuck_ppm in 0u32..200_000,
        flip_ppm in 0u32..200_000,
        spurious_ppm in 0u32..200_000,
        truncate_ppm in 0u32..1_000_000,
        seed in 0u64..1_000_000,
    ) {
        let (tf, records) = balanced_stream(nfns, &ops);
        prop_assume!(records.len() >= 4);
        let (syms, clean_events, _) = decode_recovering(&records, &tf);
        let clean = Analyzer::new(&syms).recovering(true).session(&clean_events).expect("ungated");
        let spec = FaultSpec {
            drop_ppm,
            stuck_ppm,
            flip_ppm,
            flip_bit: None,
            spurious_ppm,
            truncate_ppm,
            refuse_after: None,
        };
        let inj = FaultInjector::new(spec, seed);
        let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&records)));
        let (corrupted, trailing) = parse_raw_lossy(&bytes);
        let (s2, events, anoms) = decode_recovering(&corrupted, &tf);
        let mut r = Analyzer::new(&s2).recovering(true).session(&events).expect("ungated");
        r.note(&anoms);
        if trailing > 0 {
            r.note(&Anomalies { truncations: 1, ..Anomalies::default() });
        }
        // run_time is elapsed minus idle: always within the session.
        prop_assert!(r.run_time() <= r.total_elapsed);
        // A clean balanced stream has tiny deltas; every corrupt delta
        // the clamp accepts is < TIME_JUMP_THRESHOLD, each flip
        // perturbs at most two deltas, and base re-adoption adds at
        // most one more accepted-but-wrong delta per flip.
        let flips = inj.counts().flipped;
        let slack = (2 * flips + 2) * u64::from(hwprof_analysis::TIME_JUMP_THRESHOLD);
        prop_assert!(
            r.total_elapsed <= clean.total_elapsed + slack,
            "elapsed {} vs clean {} + slack {}",
            r.total_elapsed, clean.total_elapsed, slack
        );
        // And the result still renders.
        let report = summary_report(&r, Some(10));
        prop_assert!(report.contains("Elapsed time"));
    }

    /// Recovery-mode streaming over corrupted banks is bit-identical to
    /// batch recovery analysis of the same banks, for any bank split,
    /// worker count and fault schedule — the anomaly counters merge
    /// through the monoid exactly like every other field.
    #[test]
    fn streaming_recovery_matches_batch_recovery(
        nfns in 1u16..6,
        ops in prop::collection::vec((0u8..=255, 0u8..40), 4..200),
        cuts in prop::collection::vec(0usize..1000, 0..5),
        workers in 1usize..5,
        ppm in 0u32..150_000,
        seed in 0u64..1_000_000,
    ) {
        let (tf, records) = balanced_stream(nfns, &ops);
        prop_assume!(records.len() >= 4);
        let inj = FaultInjector::new(
            FaultSpec { flip_bit: None, refuse_after: None, ..FaultSpec::uniform(ppm) },
            seed,
        );
        let corrupted = inj.corrupt_records(&records);
        // Split into banks at arbitrary points.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| c % (corrupted.len() + 1)).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut banks: Vec<Vec<RawRecord>> = Vec::new();
        let mut prev = 0;
        for p in bounds.into_iter().chain([corrupted.len()]) {
            if p < prev {
                continue;
            }
            banks.push(corrupted[prev..p].to_vec());
            prev = p;
        }
        let analyzer = StreamAnalyzer::recovering(&tf, workers);
        let mut feed = analyzer.feed();
        for bank in &banks {
            prop_assert!(hwprof_profiler::BankSink::bank(&mut feed, bank.clone()));
        }
        drop(feed);
        let streamed = analyzer.finish().remove(&0).unwrap().profile;
        let batch = batch_recovering(&tf, &banks);
        prop_assert_eq!(streamed, batch);
    }

    /// Fault-corrupted records always stay inside the hardware's
    /// domain: tags 16-bit by construction, times within the 24-bit
    /// counter.
    #[test]
    fn corruption_preserves_record_domain(
        n in 1usize..300,
        ppm in 0u32..1_000_000,
        seed in 0u64..1_000_000,
    ) {
        let input: Vec<RawRecord> = (0..n)
            .map(|i| RawRecord::latch(500 + (i % 40) as u16, i as u64 * 11))
            .collect();
        let inj = FaultInjector::new(
            FaultSpec { flip_bit: None, refuse_after: None, ..FaultSpec::uniform(ppm) },
            seed,
        );
        for r in inj.corrupt_records(&input) {
            prop_assert!(r.time <= TIME_MASK, "time {:#x} overflows the counter", r.time);
        }
    }
}

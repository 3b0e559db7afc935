//! The fault-injection harness end to end: rate-0 injection is the
//! identity, each single-fault class is accounted exactly in the
//! `Anomalies` summary, and a refusing bank sink yields a clean
//! `BoardOverflow` error plus a partial-but-analyzable capture.

use hwprof::analysis::{
    decode_recovering, summary_report, Analyzer, Anomalies, Reconstruction, SessionRecon,
    StreamAnalyzer, Symbols,
};
use hwprof::profiler::{
    parse_raw_lossy, serialize_raw, BankSink, BoardConfig, FaultInjector, FaultSpec, RawRecord,
};
use hwprof::tagfile::{TagFile, TagKind};
use hwprof::{scenarios, Error, Experiment};

/// A flat capture of `pairs` entry/exit pairs, every pair a *distinct*
/// function: no symbol ever repeats, so each injected fault maps to
/// exactly one anomaly class with no cross-talk (a dropped exit's stale
/// frame can never satisfy a later exit).
fn flat_stream(pairs: u16) -> (TagFile, Vec<RawRecord>) {
    let mut tf = TagFile::new(500);
    let mut records = Vec::new();
    let mut t = 0u64;
    for i in 0..pairs {
        let tag = tf
            .assign(&format!("fn{i}"), TagKind::Function)
            .expect("fresh name");
        records.push(RawRecord::latch(tag, t));
        records.push(RawRecord::latch(tag + 1, t + 5));
        t += 10;
    }
    (tf, records)
}

/// Recovery analysis of one corrupted upload byte stream.
fn analyze_bytes(tf: &TagFile, bytes: &[u8]) -> Reconstruction {
    let (records, trailing) = parse_raw_lossy(bytes);
    let (syms, events, anoms) = decode_recovering(&records, tf);
    let mut r = Analyzer::new(&syms)
        .recovering(true)
        .session(&events)
        .expect("ungated");
    r.note(&anoms);
    if trailing > 0 {
        r.note(&Anomalies {
            truncations: 1,
            ..Anomalies::default()
        });
    }
    r
}

fn inject(
    tf: &TagFile,
    records: &[RawRecord],
    spec: FaultSpec,
    seed: u64,
) -> (Reconstruction, hwprof::InjectedFaults) {
    let inj = FaultInjector::new(spec, seed);
    let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(records)));
    (analyze_bytes(tf, &bytes), inj.counts())
}

#[test]
fn zero_rate_injection_is_bit_identical_to_direct_path() {
    let (tf, records) = flat_stream(2000);
    let direct = analyze_bytes(&tf, &serialize_raw(&records));
    let (through_faults, counts) = inject(&tf, &records, FaultSpec::none(), 0xDEAD_BEEF);
    assert_eq!(counts.total(), 0);
    assert_eq!(
        through_faults, direct,
        "rate-0 fault layer must be the identity"
    );
    assert!(direct.anomalies.is_clean());
}

#[test]
fn dropped_triggers_are_accounted_exactly() {
    let (tf, records) = flat_stream(2000);
    let spec = FaultSpec {
        drop_ppm: 5_000,
        ..FaultSpec::none()
    };
    let (r, counts) = inject(&tf, &records, spec, 11);
    assert!(counts.dropped > 0, "5000 ppm over 4000 records must hit");
    // A dropped entry leaves an orphan exit; a dropped exit leaves an
    // unmatched entry.  With all-distinct functions, nothing else.
    assert_eq!(
        r.anomalies.orphan_exits + r.anomalies.unmatched_entries,
        counts.dropped,
        "every dropped trigger must surface as exactly one anomaly"
    );
    assert_eq!(
        r.anomalies.total() - r.anomalies.orphan_exits - r.anomalies.unmatched_entries,
        0
    );
}

#[test]
fn stuck_counter_duplicates_are_accounted_exactly() {
    let (tf, records) = flat_stream(2000);
    let spec = FaultSpec {
        stuck_ppm: 5_000,
        ..FaultSpec::none()
    };
    let (r, counts) = inject(&tf, &records, spec, 12);
    assert!(counts.duplicated > 0);
    assert_eq!(r.anomalies.duplicates, counts.duplicated);
    // Duplicates are dropped at decode: the reconstruction is otherwise
    // clean.
    assert_eq!(r.anomalies.total(), counts.duplicated);
    let clean = analyze_bytes(&tf, &serialize_raw(&records));
    assert_eq!(r.total_elapsed, clean.total_elapsed);
    assert_eq!(
        r.stats, clean.stats,
        "dropping duplicates restores the clean stats"
    );
}

#[test]
fn spurious_tags_are_accounted_exactly() {
    let (tf, records) = flat_stream(2000);
    let spec = FaultSpec {
        spurious_ppm: 5_000,
        ..FaultSpec::none()
    };
    let (r, counts) = inject(&tf, &records, spec, 13);
    assert!(counts.spurious > 0);
    assert_eq!(r.anomalies.unknown_tags, counts.spurious);
    assert_eq!(r.anomalies.total(), counts.spurious);
}

#[test]
fn flipped_time_bits_are_accounted_exactly() {
    let (tf, records) = flat_stream(2000);
    // Pin the flip to time bit 23: every flip is one detectable,
    // clampable jump (a lone corrupt value bridged by the unwrapper).
    let spec = FaultSpec {
        flip_ppm: 5_000,
        flip_bit: Some(39),
        ..FaultSpec::none()
    };
    let (r, counts) = inject(&tf, &records, spec, 14);
    assert!(counts.flipped > 0);
    assert_eq!(r.anomalies.time_jumps, counts.flipped);
    assert_eq!(r.anomalies.total(), counts.flipped);
    // The clamp held: elapsed is unchanged from the clean session (each
    // corrupt value is bridged, its two deltas re-fused).
    let clean = analyze_bytes(&tf, &serialize_raw(&records));
    assert_eq!(r.total_elapsed, clean.total_elapsed);
}

#[test]
fn truncated_upload_is_accounted_exactly() {
    let (tf, records) = flat_stream(200);
    let spec = FaultSpec {
        truncate_ppm: 1_000_000,
        ..FaultSpec::none()
    };
    let inj = FaultInjector::new(spec, 15);
    let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&records)));
    assert_eq!(inj.counts().truncations, 1);
    let r = analyze_bytes(&tf, &bytes);
    assert_eq!(r.anomalies.truncations, 1);
    // The cut is mid-record: the final record is lost whole, so its
    // partner becomes one boundary anomaly alongside the truncation.
    assert!(r.anomalies.total() <= 2);
}

#[test]
fn experiment_fault_path_rate_zero_matches_direct_run() {
    let run = |faults: bool| {
        let mut e = Experiment::new()
            .profile_modules(&["kern", "locore"])
            .scenario(scenarios::clock_idle(5));
        if faults {
            e = e.faults(FaultSpec::none(), 99);
        }
        e.try_run().expect("tiny run")
    };
    let direct = run(false);
    let faulted = run(true);
    assert_eq!(
        direct.records, faulted.records,
        "rate 0 must not touch the upload"
    );
    assert_eq!(faulted.injected.expect("injector ran").total(), 0);
    assert_eq!(direct.injected, None);
    assert_eq!(
        direct.try_analyze().expect("ungated"),
        faulted.try_analyze().expect("ungated"),
        "recovery analysis must agree bit for bit"
    );
}

#[test]
fn experiment_fault_path_classifies_and_gates_corruption() {
    let run = |limit_ppm: Option<u32>| {
        let mut e = Experiment::new()
            .profile_modules(&["kern", "locore"])
            .scenario(scenarios::clock_idle(20))
            .faults(FaultSpec::uniform(20_000), 7);
        if let Some(ppm) = limit_ppm {
            e = e.anomaly_limit_ppm(ppm);
        }
        e.try_run().expect("run survives injection")
    };
    let capture = run(None);
    let injected = capture.injected.expect("faults were configured");
    assert!(
        injected.total() > 0,
        "2% uniform rate must inject something"
    );
    let r = capture.try_analyze().expect("default limit never refuses");
    assert!(
        !r.anomalies.is_clean(),
        "injected faults must surface in the anomaly summary: {injected:?}"
    );
    // The report carries the integrity block.
    let report = summary_report(&r, Some(10));
    assert!(report.contains("Capture integrity:"), "report:\n{report}");
    // The trust gate: a generous limit passes, a zero limit refuses.
    assert!(run(Some(1_000_000)).try_analyze().is_ok());
    match run(Some(0)).try_analyze() {
        Err(Error::CorruptUpload {
            anomalies,
            tags,
            limit_ppm,
        }) => {
            assert!(anomalies > 0);
            assert!(tags > 0);
            assert_eq!(limit_ppm, 0);
        }
        other => panic!("expected CorruptUpload, got {other:?}"),
    }
}

#[test]
fn refused_bank_is_a_board_overflow_error_not_a_hang() {
    // The operator runs out of empty RAMs after two banks: the third
    // refusal must surface as BoardOverflow from the streaming run.
    let result = Experiment::new()
        .profile_modules(&["kern", "locore"])
        .board(BoardConfig {
            capacity: 64,
            time_bits: 24,
        })
        .scenario(scenarios::clock_idle(20))
        .faults(
            FaultSpec {
                refuse_after: Some(2),
                ..FaultSpec::none()
            },
            3,
        )
        .try_run_streaming(2);
    match result {
        Err(Error::BoardOverflow { banks, .. }) => {
            // Two accepted drains plus the refused one that lit the LED.
            assert_eq!(banks, 3, "two accepted banks and the refused third");
        }
        Ok(c) => panic!(
            "expected BoardOverflow, but the run completed with {} banks",
            c.banks
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn refused_bank_capture_stays_analyzable() {
    // Analysis-level check of the same path: banks accepted before the
    // refusal still merge into a usable partial reconstruction.
    let (tf, records) = flat_stream(100);
    let analyzer = StreamAnalyzer::recovering(&tf, 2);
    let inj = FaultInjector::new(
        FaultSpec {
            refuse_after: Some(1),
            ..FaultSpec::none()
        },
        4,
    );
    let mut sink = inj.sink(Box::new(analyzer.feed()));
    let half = records.len() / 2;
    assert!(sink.bank(records[..half].to_vec()), "first bank accepted");
    assert!(!sink.bank(records[half..].to_vec()), "second bank refused");
    drop(sink);
    let r = analyzer.finish().remove(&0).unwrap().profile;
    assert_eq!(inj.counts().refused_banks, 1);
    assert_eq!(r.sessions, 1, "only the accepted bank was analyzed");
    let expected_calls: u64 = (half / 2) as u64;
    let calls: u64 = r.stats.iter().map(|a| a.calls).sum();
    assert_eq!(
        calls, expected_calls,
        "the partial capture's pairs all completed"
    );
    let report = summary_report(&r, Some(5));
    assert!(
        report.contains("Elapsed time"),
        "partial capture renders a report"
    );
}

/// Arena accumulation across sessions (one reused `SessionRecon`
/// writing into a shared `Reconstruction`, the analyzer's fold path)
/// is bit-identical to merging independent one-shot reconstructions —
/// per-class anomaly counts included.
#[test]
fn arena_recon_accumulation_matches_merged_one_shots() {
    let (tf, clean) = flat_stream(500);
    let syms = Symbols::from_tagfile(&tf);
    let sessions: Vec<_> = [11u64, 22, 33]
        .iter()
        .map(|&seed| {
            let inj = FaultInjector::new(FaultSpec::uniform(20_000), seed);
            let faulty = inj.corrupt_records(&clean);
            let (_, events, anoms) = decode_recovering(&faulty, &tf);
            (events, anoms)
        })
        .collect();

    let mut merged = Reconstruction::empty(syms.clone());
    for (events, anoms) in &sessions {
        let mut r = Analyzer::new(&syms)
            .recovering(true)
            .session(events)
            .expect("ungated");
        r.note(anoms);
        merged.merge(r);
    }

    let mut arena = Reconstruction::empty(syms.clone());
    let mut recon = SessionRecon::new(&syms, true);
    for (events, anoms) in &sessions {
        recon.session_into(events, &mut arena);
        arena.note(anoms);
    }
    assert_eq!(arena, merged, "arena fold must equal merge of one-shots");
}

/// The single-fault per-class goldens hold unchanged through the arena
/// path, with the `SessionRecon` deliberately reused (dirty pools and
/// lane counters) between fault classes.
#[test]
fn arena_recon_keeps_per_class_fault_goldens() {
    let (tf, clean) = flat_stream(1000);
    let syms = Symbols::from_tagfile(&tf);
    let mut recon = SessionRecon::new(&syms, true);
    let run = |recon: &mut SessionRecon, spec: FaultSpec, seed: u64| {
        let inj = FaultInjector::new(spec, seed);
        let faulty = inj.corrupt_records(&clean);
        let (_, events, anoms) = decode_recovering(&faulty, &tf);
        let mut out = Reconstruction::empty(syms.clone());
        recon.session_into(&events, &mut out);
        out.note(&anoms);
        (out, inj.counts())
    };

    // Stuck counter: every duplicate dropped at decode, nothing else.
    let (r, counts) = run(
        &mut recon,
        FaultSpec {
            stuck_ppm: 5_000,
            ..FaultSpec::none()
        },
        12,
    );
    assert!(counts.duplicated > 0);
    assert_eq!(r.anomalies.duplicates, counts.duplicated);
    assert_eq!(r.anomalies.total(), counts.duplicated);

    // Spurious tags: each one an unknown tag, nothing else.
    let (r, counts) = run(
        &mut recon,
        FaultSpec {
            spurious_ppm: 5_000,
            ..FaultSpec::none()
        },
        13,
    );
    assert!(counts.spurious > 0);
    assert_eq!(r.anomalies.unknown_tags, counts.spurious);
    assert_eq!(r.anomalies.total(), counts.spurious);

    // Dropped triggers: exactly one orphan exit or unmatched entry
    // each (all-distinct functions, so no cross-talk).
    let (r, counts) = run(
        &mut recon,
        FaultSpec {
            drop_ppm: 5_000,
            ..FaultSpec::none()
        },
        11,
    );
    assert!(counts.dropped > 0);
    assert_eq!(
        r.anomalies.orphan_exits + r.anomalies.unmatched_entries,
        counts.dropped
    );
    assert_eq!(
        r.anomalies.total(),
        r.anomalies.orphan_exits + r.anomalies.unmatched_entries
    );
}

/// The `anomaly_limit_ppm` trust gate fires exactly at the boundary of
/// the arena path's anomaly counts: the observed ppm passes, one ppm
/// below refuses, and a configured limit of zero refuses by default.
#[test]
fn anomaly_limit_gate_is_exact_on_arena_counts() {
    let run = |limit_ppm: Option<u32>| {
        let mut e = Experiment::new()
            .profile_modules(&["kern", "locore"])
            .scenario(scenarios::clock_idle(20))
            .faults(FaultSpec::uniform(20_000), 7);
        if let Some(ppm) = limit_ppm {
            e = e.anomaly_limit_ppm(ppm);
        }
        e.try_run().expect("run survives injection")
    };
    let r = run(None).try_analyze().expect("default never refuses");
    let total = r.anomalies.total();
    let tags = r.tags as u64;
    assert!(total > 0, "2% corruption must surface anomalies");

    let exact = ((total * 1_000_000).div_ceil(tags.max(1))) as u32;
    assert_eq!(
        run(Some(exact)).try_analyze().expect("exact limit passes"),
        r
    );
    match run(Some(exact - 1)).try_analyze() {
        Err(Error::CorruptUpload { anomalies, .. }) => assert_eq!(anomalies, total),
        other => panic!("expected CorruptUpload just under the boundary, got {other:?}"),
    }
    assert!(
        matches!(run(Some(0)).try_analyze(), Err(Error::CorruptUpload { .. })),
        "a configured zero limit must refuse"
    );
}

/// The streaming half of the same trust gate: `try_run_streaming`
/// checks `anomaly_limit_ppm` against the merged profile, refusing a
/// faulted run at a zero limit and just under its own anomaly ppm, and
/// passing it, unchanged, at exactly that ppm.
#[test]
fn streaming_anomaly_limit_gate_is_exact() {
    let run = |limit: Option<u32>| {
        let mut experiment = Experiment::new()
            .profile_modules(&["kern", "locore"])
            .board(BoardConfig {
                capacity: 64,
                time_bits: 24,
            })
            .scenario(scenarios::clock_idle(20))
            .faults(FaultSpec::uniform(20_000), 7);
        if let Some(ppm) = limit {
            experiment = experiment.anomaly_limit_ppm(ppm);
        }
        experiment.try_run_streaming(2)
    };
    let open = run(None).expect("no limit never refuses");
    let total = open.profile.anomalies.total();
    let tags = open.profile.tags as u64;
    assert!(open.banks > 1, "the capture streams several banks");
    assert!(total > 0, "2% corruption must surface anomalies");

    let exact = ((total * 1_000_000).div_ceil(tags)) as u32;
    let at = run(Some(exact)).expect("the exact anomaly ppm passes");
    assert_eq!(at.profile, open.profile);
    for limit in [exact - 1, 0] {
        match run(Some(limit)) {
            Err(Error::CorruptUpload {
                anomalies,
                tags: refused_tags,
                limit_ppm,
            }) => assert_eq!((anomalies, refused_tags, limit_ppm), (total, tags, limit)),
            Ok(c) => panic!("limit {limit} passed {} banks", c.banks),
            Err(e) => panic!("limit {limit}: expected CorruptUpload, got {e}"),
        }
    }
}

//! Supervised capture end to end: a workload that overflows the stock
//! board several times over completes under `Experiment::supervised()`
//! with high coverage, every dark window and ladder move accounted for
//! in the report's Coverage block, and the three stitch paths agreeing
//! bit-for-bit.  Plus the two new error paths.

use hwprof::analysis::{summary_report, StreamAnalyzer};
use hwprof::profiler::{BankSink, BoardConfig, GapCause};
use hwprof::{
    scenarios, Analyzer, Error, Experiment, FlakyTransport, MemoryTransport, SupervisorPolicy,
    TagMaskLevel,
};

/// ~1 MB of saturated TCP: enough to fill the stock 16384-event RAM
/// several times over (the one-shot capture would stop at the first
/// fill).
fn overflowing_experiment() -> Experiment {
    Experiment::new()
        .profile_all()
        .board(BoardConfig::default())
        .scenario(scenarios::network_receive(1024 * 1024, true))
}

#[test]
fn supervised_capture_survives_repeated_overflow() {
    let cap = overflowing_experiment()
        .supervised(SupervisorPolicy::default())
        .expect("supervised run completes");
    let cov = *cap.coverage();

    // The workload overflows a stock board at least three times: every
    // one of those fills is an explicit overflow gap, not a dead run.
    assert!(
        cov.overflow_gaps >= 3,
        "wanted >= 3 overflow points, got {}",
        cov.overflow_gaps
    );
    assert!(
        cap.run.events() > BoardConfig::default().capacity,
        "captured beyond one RAM: {} events",
        cap.run.events()
    );

    // The default policy floor is 90% — completion implies it held;
    // check the ledger arithmetic is exact too.
    assert!(cov.fraction() >= 0.90, "coverage {:.3}", cov.fraction());
    assert_eq!(cov.covered_us + cov.gap_us, cov.timeline_us);
    assert_eq!(cov.gaps, cap.run.gaps.len() as u64);

    // Every gap in the list is accounted in the ledger's cause counts.
    let overflow_listed = cap
        .run
        .gaps
        .iter()
        .filter(|g| g.cause == GapCause::Overflow)
        .count() as u64;
    assert_eq!(overflow_listed, cov.overflow_gaps);
    let lost_listed = cap
        .run
        .gaps
        .iter()
        .filter(|g| g.cause == GapCause::BankLost)
        .count() as u64;
    assert_eq!(lost_listed, cov.banks_lost);

    // The report surfaces the Coverage block with the gap count.
    let report = summary_report(&cap.profile, Some(10));
    assert!(report.contains("Coverage:"), "report:\n{report}");
    assert!(report.contains("covered"), "report:\n{report}");
    assert!(
        report.contains(&format!("{} gap", cov.gaps)),
        "gap count missing from report:\n{report}"
    );

    // And the profile still tells the workload's story.
    assert!(cap.profile.agg("bcopy").expect("hot fn").calls > 0);
}

#[test]
fn supervised_stitch_paths_are_bit_identical() {
    let cap = overflowing_experiment()
        .supervised(SupervisorPolicy::default())
        .expect("supervised run completes");
    let stitcher = Analyzer::for_tagfile(&cap.tagfile);
    let seq = stitcher.run(&cap.run).expect("ungated");
    assert_eq!(seq, cap.profile, "capture's own profile is the stitch");
    for workers in [1, 2, 4] {
        let fanned = stitcher.clone().workers(workers);
        let par = fanned.run(&cap.run).expect("ungated");
        assert_eq!(seq, par, "parallel({workers}) diverged");
        let pipeline = StreamAnalyzer::new(&cap.tagfile, workers);
        let mut feed = pipeline.feed();
        for s in &cap.run.sessions {
            assert!(feed.bank(s.records.clone()), "pipeline open");
        }
        drop(feed);
        let mut streamed = pipeline.finish().remove(&0).unwrap().profile;
        streamed.note_coverage(&cap.run.coverage);
        assert_eq!(seq, streamed, "streaming({workers}) diverged");
    }
}

#[test]
fn ladder_sheds_load_under_pressure() {
    // A tiny board under a saturated stream: the unmasked trigger rate
    // would fill it in far less than the downgrade threshold, so the
    // ladder must step down — and the shed load is accounted.
    let policy = SupervisorPolicy {
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    };
    let cap = Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1024,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(512 * 1024, true))
        .supervised(policy)
        .expect("supervised run completes");
    let cov = *cap.coverage();
    assert!(cov.mask_downgrades >= 1, "ladder never stepped down");
    assert!(cov.masked_events > 0, "nothing was masked");
    assert_ne!(cap.run.final_level, TagMaskLevel::All);
    let report = summary_report(&cap.profile, Some(5));
    assert!(report.contains("mask ladder:"), "report:\n{report}");
    // Downgrades are visible in per-session levels too.
    assert!(cap
        .run
        .sessions
        .iter()
        .any(|s| s.level != TagMaskLevel::All));
}

#[test]
fn dead_transport_is_a_transport_failed_error() {
    // Every upload attempt fails: nothing is ever delivered, and the
    // run reports TransportFailed rather than panicking or returning
    // an empty capture.
    let transport = Box::new(FlakyTransport::new(MemoryTransport::new(), 1_000_000, 7));
    let result = Experiment::new()
        .profile_modules(&["kern", "locore"])
        .scenario(scenarios::clock_idle(5))
        .supervised_with(
            SupervisorPolicy {
                min_coverage_ppm: 0,
                ..SupervisorPolicy::default()
            },
            transport,
        );
    match result {
        Err(Error::TransportFailed {
            banks_lost,
            failures,
        }) => {
            assert!(banks_lost >= 1);
            assert!(failures >= banks_lost);
        }
        Ok(c) => panic!("delivered {} sessions on a dead wire", c.run.sessions.len()),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn starved_run_is_a_coverage_too_low_error() {
    // Ladder off, tiny board, long swaps: most of the timeline is
    // spent dark, which the default 90% floor must refuse.
    let policy = SupervisorPolicy {
        downgrade_fill_us: 0,
        drain_budget_us: 50_000,
        ..SupervisorPolicy::default()
    };
    let result = Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 256,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(256 * 1024, true))
        .supervised(policy);
    match result {
        Err(Error::CoverageTooLow {
            achieved_ppm,
            required_ppm,
        }) => {
            assert!(achieved_ppm < required_ppm);
            assert_eq!(required_ppm, 900_000);
        }
        Ok(c) => panic!("accepted {:.1}% coverage", c.coverage().fraction() * 100.0),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

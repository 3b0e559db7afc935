//! The capture-backend API end to end: one scenario, written once,
//! observed by all four backends through the same
//! `Experiment::backend(...).try_capture()` lifecycle — plus the
//! adapter identity (the board backend is the paper's capture, exactly)
//! and the failure paths.

use hwprof::{
    scenarios, BoardBackend, CaptureBackend, CounterModel, CountersBackend, Error, Experiment,
    KtraceBackend, NativeCapture, SamplingBackend, Scenario,
};

fn workload() -> Scenario {
    scenarios::network_receive(8 * 1024, false)
}

/// The acceptance criterion verbatim: the same scenario runs unmodified
/// under every backend, and every backend normalizes into the same
/// `Reconstruction` monoid.
#[test]
fn one_scenario_runs_under_all_four_backends() {
    let backends: Vec<Box<dyn CaptureBackend>> = vec![
        Box::new(BoardBackend),
        Box::new(SamplingBackend),
        Box::new(CountersBackend),
        Box::new(KtraceBackend::default()),
    ];
    let mut seen = Vec::new();
    for backend in backends {
        let name = backend.name();
        let cap = Experiment::new()
            .backend_boxed(backend)
            .scenario(workload())
            .try_capture()
            .unwrap_or_else(|e| panic!("{name} capture failed: {e}"));
        assert_eq!(cap.backend, name);
        assert!(cap.native.events() > 0, "{name} observed nothing");
        assert!(
            cap.profile.total_elapsed > 0,
            "{name} normalized to an empty profile"
        );
        // Every backend's output drives the same unified Profile view.
        let trace = cap.as_profile().chrome_trace();
        assert!(trace.contains("traceEvents"), "{name} export broke");
        seen.push(name);
    }
    assert_eq!(seen, ["board", "sampling", "counters", "ktrace"]);
}

/// The board backend is a zero-cost adapter: bit-identical records and
/// reconstruction to the pre-redesign `try_run` + `analyze` path.
#[test]
fn board_backend_is_bit_identical_to_try_run() {
    let direct = Experiment::new()
        .scenario(workload())
        .try_run()
        .expect("direct run");
    let via_backend = Experiment::new()
        .scenario(workload())
        .try_capture()
        .expect("backend run");
    assert_eq!(via_backend.backend, "board");
    let NativeCapture::Banks(banks) = &via_backend.native else {
        panic!("board backend must capture record banks");
    };
    assert_eq!(banks.len(), 1);
    assert_eq!(banks[0], direct.records, "native records diverged");
    assert_eq!(
        via_backend.profile,
        direct.analyze(),
        "adapter reconstruction diverged from the direct capture"
    );
}

/// Sampling runs against a production build (no triggers) and its
/// normalization conserves time exactly: kernel shares + idle account
/// for every sample.
#[test]
fn sampling_backend_conserves_sampled_time() {
    let cap = Experiment::new()
        .backend(SamplingBackend)
        .scenario(workload())
        .try_capture()
        .expect("sampling capture");
    assert!(!cap.cost.counts_calls);
    let NativeCapture::Samples(p) = &cap.native else {
        panic!("sampling backend must capture samples");
    };
    assert!(p.total > 0);
    let kernel_us: u64 = cap.profile.stats.iter().map(|a| a.net).sum();
    assert_eq!(kernel_us + cap.profile.idle, cap.profile.total_elapsed);
    // No record sessions sit behind a sampled histogram.
    assert_eq!(cap.profile.sessions, 0);
}

/// The counters backend refutes — or fails to refute — a board profile
/// from the *same* run: CounterPoint's cross-check, here between the
/// kernel's own always-on counters and the reconstruction.
#[test]
fn counter_cross_checks_agree_with_the_board_on_the_same_run() {
    let cap = Experiment::new()
        .scenario(workload())
        .try_capture()
        .expect("board capture");
    let checks = CounterModel::default().cross_checks(&cap.kernel.stats, &cap.profile, 0.05);
    assert!(!checks.is_empty());
    let ticks = checks
        .iter()
        .find(|c| c.counter == "ticks")
        .expect("ticks anchor present");
    assert!(
        ticks.agrees,
        "board hardclock calls {} vs counted ticks {}",
        ticks.profiled, ticks.counted
    );
    assert!(
        checks.iter().all(|c| c.agrees),
        "same-run profile refuted by its own counters: {checks:?}"
    );
}

/// A deliberately tiny trace buffer overflows and the backend refuses
/// the capture — a non-retryable BackendFailed, not a silent bias.
#[test]
fn ktrace_overflow_is_a_backend_failure() {
    let err = match Experiment::new()
        .backend(KtraceBackend { capacity: 16 })
        .scenario(workload())
        .try_capture()
    {
        Ok(_) => panic!("16-event buffer must overflow"),
        Err(e) => e,
    };
    match &err {
        Error::BackendFailed { backend, reason } => {
            assert_eq!(*backend, "ktrace");
            assert!(reason.contains("overflow"), "unexpected reason: {reason}");
        }
        other => panic!("expected BackendFailed, got {other}"),
    }
    assert!(!err.is_retryable(), "a deterministic overflow re-occurs");
}

/// Ktrace decodes through the very same tag file and analyzer as the
/// board: same functions observed, call counts in the same ballpark
/// (its per-event cost shifts interrupt timing, so exact equality is
/// not expected — that perturbation is the point).
#[test]
fn ktrace_sees_the_board_functions() {
    let board = Experiment::new()
        .scenario(workload())
        .try_capture()
        .expect("board capture");
    let ktrace = Experiment::new()
        .backend(KtraceBackend::default())
        .scenario(workload())
        .try_capture()
        .expect("ktrace capture");
    for name in ["bcopy", "ipintr", "in_cksum"] {
        let b = board.profile.agg(name).expect("board symbol").calls;
        let k = ktrace.profile.agg(name).expect("ktrace symbol").calls;
        assert!(b > 0, "board never saw {name}");
        assert!(k > 0, "ktrace never saw {name}");
    }
}

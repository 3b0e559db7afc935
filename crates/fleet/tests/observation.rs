//! Observation on and off: the telemetry registry, the span journal
//! and the flight recorder are passive observers, so a run with them
//! live produces the same profile, reports, recorder ledger, sentinel
//! journal and fleet report as the same run with them left inert — and
//! the inert run's `as_profile()` renders exactly like a bare profile.

use hwprof::analysis::Profile;
use hwprof::profiler::BoardConfig;
use hwprof::{
    scenarios, Experiment, RecorderConfig, RecorderLedger, Registry, SentinelConfig, SpanLog,
    SupervisorPolicy,
};
use hwprof_fleet::{Fleet, FleetPolicy, FleetSentinelPolicy};

const SEED: u64 = 0x1993_0617;

/// The renders a capture path must keep: Figure-3 summary, folded
/// stacks and the Chrome trace.
fn renders(p: &Profile<'_>) -> [String; 3] {
    [p.summary_report(None), p.folded(), p.chrome_trace()]
}

fn experiment(bytes: u64) -> Experiment {
    Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1024,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(bytes, true))
}

fn recorder_config() -> RecorderConfig {
    RecorderConfig::builder()
        .window_us(5_000)
        .retain(512)
        .build()
        .expect("valid config")
}

fn policy() -> SupervisorPolicy {
    SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    }
}

#[test]
fn streaming_is_the_same_observed_or_not() {
    let (reg, log) = (Registry::new(), SpanLog::new());
    let on = experiment(64 * 1024)
        .telemetry(&reg)
        .journal(&log)
        .try_run_streaming(2)
        .expect("observed stream capture");
    let off = experiment(64 * 1024)
        .try_run_streaming(2)
        .expect("plain stream capture");
    assert!(on.banks > 1, "the capture streams several banks");
    assert_eq!(reg.snapshot().value("stream.banks"), Some(on.banks));
    assert!(!log.is_empty(), "the journal recorded the run");
    assert_eq!(on.profile, off.profile);
    assert_eq!(
        renders(&Profile::new(&on.profile)),
        renders(&off.as_profile())
    );
}

#[test]
fn supervised_is_the_same_recorded_or_not() {
    let on = experiment(256 * 1024)
        .record(policy(), recorder_config())
        .expect("recorded run");
    let off = experiment(256 * 1024)
        .supervised(policy())
        .expect("supervised run");
    assert!(on.run.sessions.len() > 1, "the run delivers several banks");
    assert!(
        on.recorder().ledger().windows > 1,
        "the recorder kept windows"
    );
    assert!(
        off.recorder().retained().is_empty(),
        "no recorder, no windows"
    );
    assert_eq!(off.ledger(), RecorderLedger::default());
    assert_eq!(on.run, off.run);
    assert_eq!(on.profile, off.profile);
    assert_eq!(renders(&on.as_profile()), renders(&off.as_profile()));
}

#[test]
fn watch_is_the_same_observed_or_not() {
    let watch = |e: Experiment| {
        e.watch(policy(), recorder_config(), SentinelConfig::default())
            .expect("watched run")
    };
    let (reg, log) = (Registry::new(), SpanLog::new());
    let on = watch(experiment(256 * 1024).telemetry(&reg).journal(&log));
    let off = watch(experiment(256 * 1024));
    let snap = on.handle().metrics().expect("telemetry was configured");
    assert!(snap.value("sent.windows").is_some_and(|w| w > 0));
    assert!(snap.value("rec.sessions").is_some_and(|s| s > 0));
    assert!(!log.is_empty(), "the journal recorded the run");
    assert_eq!(off.handle().metrics(), None, "no registry, no metrics");
    assert_eq!(on.describe(), off.describe());
    assert_eq!(on.handle().ledger(), off.handle().ledger());
    let (h, alerts) = (on.handle(), on.sentinel().journal().entries());
    let bare = Profile::new(&h.profile).run(&h.run).alerts(alerts);
    assert_eq!(renders(&bare), renders(&off.as_profile()));
}

#[test]
fn a_fleet_is_the_same_observed_or_not() {
    let fleet = || {
        Fleet::new(FleetPolicy {
            machines: 2,
            shards: 2,
            seed: SEED,
            sentinel: Some(FleetSentinelPolicy::default()),
            ..FleetPolicy::default()
        })
    };
    let reg = Registry::new();
    let on = fleet().telemetry(&reg).run().expect("observed fleet");
    let off = fleet().run().expect("plain fleet");
    let snap = reg.snapshot();
    assert!(snap.value("m0.sup.sessions").is_some_and(|s| s > 0));
    assert!(snap.value("m1.sup.sessions").is_some_and(|s| s > 0));
    assert_eq!(on.describe(), off.describe());
}

//! End-to-end flight recorder: `Experiment::record()` runs the full
//! supervised capture path with an always-on recorder subscribed, and
//! the handle's query surface — windows, ranges, diffs, the eviction
//! ledger — behaves over a real workload, deterministically.

use hwprof::profiler::BoardConfig;
use hwprof::{
    scenarios, validate_json, Experiment, RecorderConfig, Registry, SpanLog, SupervisorPolicy,
};

const SEED: u64 = 0x1993_0617;

fn policy() -> SupervisorPolicy {
    SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    }
}

fn experiment() -> Experiment {
    Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1024,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(256 * 1024, true))
}

#[test]
fn record_builds_an_exact_window_ring() {
    let cfg = RecorderConfig::builder()
        .window_us(5_000)
        .retain(512)
        .build()
        .expect("valid config");
    let handle = experiment().record(policy(), cfg).expect("recorded run");
    let rec = handle.recorder();

    let retained = rec.retained();
    assert!(!retained.is_empty(), "a real run must retain windows");
    let ledger = handle.ledger();
    assert!(ledger.is_exact(), "{}", ledger.describe());
    assert_eq!(ledger.evicted_windows, 0, "512 windows must be plenty");
    assert_eq!(
        ledger.covered_us + ledger.dark_us,
        handle.coverage().timeline_us,
        "an unevicted ring must tile the run's whole timeline"
    );
    assert_eq!(ledger.covered_us, handle.coverage().covered_us);

    // Every retained window folds; both neighbours outside refuse.
    for w in retained.clone() {
        let rollup = rec.window(w).expect("retained window folds");
        assert_eq!(rollup.index, w);
        assert!(rollup.start_us <= rollup.end_us);
    }
    if retained.start > 0 {
        assert!(rec.window(retained.start - 1).is_none());
    }
    assert!(rec.window(retained.end).is_none());

    // A range is the monoid fold of its windows.
    let merged = rec
        .range(retained.clone())
        .expect("full retained range folds");
    let mut fold = rec.window(retained.start).expect("retained").recon;
    for w in retained.start + 1..retained.end {
        fold.merge(rec.window(w).expect("retained").recon);
    }
    assert!(merged.recon == fold, "range diverged from the window fold");

    // The windows' net time never out-claims the one-shot analysis.
    let window_net: u64 = merged.recon.stats.iter().map(|a| a.net).sum();
    let run_net: u64 = handle.profile.stats.iter().map(|a| a.net).sum();
    assert!(window_net <= run_net);
    assert!(window_net > 0, "the workload must land events in windows");

    // The full-run profile renders through the same unified surface.
    let chrome = handle.as_profile().name("recorded").chrome_trace();
    validate_json(&chrome).expect("chrome export is valid JSON");
}

#[test]
fn eviction_keeps_the_ledger_exact() {
    let cfg = RecorderConfig::builder()
        .window_us(2_000)
        .retain(2)
        .build()
        .expect("valid config");
    let handle = experiment().record(policy(), cfg).expect("recorded run");
    let ledger = handle.ledger();
    assert!(
        ledger.evicted_windows > 0,
        "two windows cannot hold this run"
    );
    assert!(ledger.evicted_us > 0);
    assert!(ledger.is_exact(), "{}", ledger.describe());
    assert_eq!(ledger.windows, 2);
    // Evicted windows refuse queries instead of answering partially.
    let rec = handle.recorder();
    let retained = rec.retained();
    assert!(rec.window(retained.start - 1).is_none());
    assert!(rec.diff(retained.start - 1, retained.start).is_none());
}

#[test]
fn diffs_and_reports_are_deterministic() {
    let run = || {
        let cfg = RecorderConfig::builder()
            .window_us(5_000)
            .retain(512)
            .build()
            .expect("valid config");
        experiment().record(policy(), cfg).expect("recorded run")
    };
    let a = run();
    let b = run();
    let (ra, rb) = (a.recorder(), b.recorder());
    assert_eq!(ra.retained(), rb.retained());
    assert_eq!(a.ledger(), b.ledger());
    let r = ra.retained();
    let (lo, hi) = (r.start, r.end - 1);
    let da = ra.diff(lo, hi).expect("both retained");
    let db = rb.diff(lo, hi).expect("both retained");
    assert_eq!(da.describe(), db.describe());
    assert_eq!(da.html(), db.html(), "diff HTML must be byte-identical");
    assert_eq!(
        ra.window(hi).expect("retained").html(),
        rb.window(hi).expect("retained").html(),
        "window HTML must be byte-identical"
    );
    assert!(da.html().starts_with("<!DOCTYPE html>"));
}

#[test]
fn telemetry_and_journal_observe_the_recorder() {
    let reg = Registry::new();
    let log = SpanLog::new();
    let cfg = RecorderConfig::builder()
        .window_us(5_000)
        .retain(512)
        .build()
        .expect("valid config");
    let handle = experiment()
        .telemetry(&reg)
        .journal(&log)
        .record(policy(), cfg)
        .expect("recorded run");
    let snap = handle.metrics().expect("telemetry configured");
    assert_eq!(
        snap.value("rec.sessions"),
        Some(handle.run.sessions.len() as u64),
        "the recorder must have seen every delivered session"
    );
    assert_eq!(
        snap.value("rec.retained"),
        Some(handle.ledger().windows),
        "retained gauge agrees with the ledger"
    );
    // The journal carries the recorder lane; it renders into the
    // unified timeline alongside everything else.
    let chrome = handle.as_profile().chrome_trace();
    validate_json(&chrome).expect("chrome export is valid JSON");
    assert!(
        chrome.contains("\"window\""),
        "window spans must reach the exported timeline"
    );
}

//! E22 — the regression sentinel: the E21 capture stream with `bcopy`
//! shifting 6× hotter for three windows and then reverting must
//! produce exactly one Pending → Firing → Resolved cycle, with the
//! exact rate evidence (baseline 50 µs/ms, observed 300, delta +250)
//! in the journal, the Profile alert surfaces, and the SNMP trap
//! subtree.  Pins the invariants CI gates on: transition windows and
//! deltas, byte-identical journal text and alerts HTML across two
//! independent runs, fleet roll-up promoting a quorum of machines to
//! fleet level, and a watched run whose sentinel fires leaving the
//! capture bit-identical to a plain `record()` run.

use std::process::exit;

use hwprof::analysis::{
    AlertTransition, FleetSentinel, FlightRecorder, Profile, Sentinel, SentinelConfig,
};
use hwprof::profiler::{BoardConfig, RawRecord, RecorderConfig, SupervisedSession, TagMaskLevel};
use hwprof::tagfile::{TagFile, TagKind};
use hwprof::{scenarios, Experiment, SupervisorPolicy};
use hwprof_bench::{banner, row};
use hwprof_snmpmib::TrapExporter;

/// Window width; every synthetic session covers exactly one window.
const WINDOW_US: u64 = 1_000;
/// Sessions (= windows) in the stream.
const SESSIONS: u64 = 12;
/// The shift spans windows 6..9; window 9 reverts to baseline.
const SHIFT_AT: u64 = 6;
const REVERT_AT: u64 = 9;
const SEED: u64 = 0x1993_0617;

/// The instrumented functions: (name, phase-1 calls, phase-2 calls,
/// per-call µs).  Only `bcopy` changes during the shift.
const FNS: &[(&str, u64, u64, u64)] = &[
    ("bcopy", 5, 10, 30),
    ("ip_input", 4, 4, 20),
    ("tcp_input", 3, 3, 30),
    ("mbuf_get", 10, 10, 2),
];
/// Outside the shift `bcopy` runs short calls.
const BCOPY_STEADY_US: u64 = 10;

fn tagfile() -> (TagFile, Vec<u16>) {
    let mut tf = TagFile::new(500);
    let tags: Vec<u16> = FNS
        .iter()
        .map(|(name, ..)| tf.assign(name, TagKind::Function).expect("fresh"))
        .collect();
    tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    (tf, tags)
}

/// One window-aligned session; `shifted` selects the hot `bcopy` phase.
fn session(index: u64, tags: &[u16], shifted: bool) -> SupervisedSession {
    let mut records = Vec::new();
    let mut t = 0u64;
    for (i, &(name, p1, p2, dur)) in FNS.iter().enumerate() {
        let calls = if shifted { p2 } else { p1 };
        let dur = if name == "bcopy" && !shifted {
            BCOPY_STEADY_US
        } else {
            dur
        };
        for _ in 0..calls {
            records.push(RawRecord::latch(tags[i], t));
            t += dur;
            records.push(RawRecord::latch(tags[i] + 1, t));
            t += 1;
        }
    }
    assert!(t < WINDOW_US, "one session must fit its window");
    SupervisedSession {
        index,
        start_us: index * WINDOW_US,
        end_us: (index + 1) * WINDOW_US,
        level: TagMaskLevel::All,
        records,
    }
}

/// Ingests the full stream (`with_shift` selects whether the workload
/// shifts at all) and scans it with a fresh sentinel.
fn watch_stream(tf: &TagFile, tags: &[u16], with_shift: bool) -> (FlightRecorder, Sentinel) {
    let cfg = RecorderConfig::builder()
        .window_us(WINDOW_US)
        .retain(64)
        .build()
        .expect("non-degenerate config");
    let rec = FlightRecorder::new(tf, cfg);
    for i in 0..SESSIONS {
        let shifted = with_shift && (SHIFT_AT..REVERT_AT).contains(&i);
        rec.ingest_session(&session(i, tags, shifted));
    }
    let mut sent = Sentinel::new(SentinelConfig::default());
    sent.scan(&rec);
    (rec, sent)
}

fn main() {
    banner("E22", "regression sentinel: baseline + detectors + journal");
    let mut all_ok = true;
    let mut check = |metric: &str, paper: &str, measured: &str, ok: bool| {
        row(metric, paper, measured, ok);
        all_ok &= ok;
    };

    let (tf, tags) = tagfile();
    let (rec, sent) = watch_stream(&tf, &tags, true);
    let journal = sent.journal();

    // Exactly one Pending -> Firing -> Resolved cycle.
    let kinds: Vec<AlertTransition> = journal.entries().iter().map(|e| e.transition).collect();
    check(
        "transition cycle",
        "PENDING FIRING RESOLVED",
        &kinds
            .iter()
            .map(|t| t.label())
            .collect::<Vec<_>>()
            .join(" "),
        kinds
            == vec![
                AlertTransition::Pending,
                AlertTransition::Firing,
                AlertTransition::Resolved,
            ],
    );
    check(
        "nothing firing at end",
        "resolved",
        if sent.firing().is_empty() {
            "resolved"
        } else {
            "still firing"
        },
        sent.firing().is_empty(),
    );

    // The Firing entry carries the exact evidence on the exact window:
    // the default 2-breach hysteresis fires one window after the shift.
    let firing = &journal.entries()[1];
    check(
        "firing window",
        &(SHIFT_AT + 1).to_string(),
        &firing.window.to_string(),
        firing.window == SHIFT_AT + 1,
    );
    check(
        "firing subject",
        "rate-shift(bcopy)",
        &format!("{}({})", firing.detector.label(), firing.subject),
        firing.detector.label() == "rate-shift" && firing.subject == "bcopy",
    );
    check(
        "baseline rate us/ms",
        "50",
        &firing.baseline.to_string(),
        firing.baseline == 50,
    );
    check(
        "observed rate us/ms",
        "300",
        &firing.observed.to_string(),
        firing.observed == 300,
    );
    check(
        "rate delta us/ms",
        "+250",
        &format!("{:+}", firing.delta),
        firing.delta == 250,
    );

    // Reversion resolves after the 2-clear hysteresis.
    let resolved = &journal.entries()[2];
    check(
        "resolved window",
        &(REVERT_AT + 1).to_string(),
        &resolved.window.to_string(),
        resolved.window == REVERT_AT + 1,
    );

    // Byte determinism: a second independent run reproduces the
    // journal text, the alerts HTML, and the annotated chrome trace.
    let merged = rec.range(0..SESSIONS).expect("retained").recon;
    let profile = Profile::new(&merged).name("E22").alerts(journal.entries());
    let html = profile.html();
    let chrome = profile.chrome_trace();
    let (rec2, sent2) = watch_stream(&tf, &tags, true);
    let merged2 = rec2.range(0..SESSIONS).expect("retained").recon;
    let html2 = Profile::new(&merged2)
        .name("E22")
        .alerts(sent2.journal().entries())
        .html();
    check(
        "journal byte-identical across runs",
        "byte-stable",
        if sent2.journal().describe() == journal.describe() {
            "byte-stable"
        } else {
            "unstable"
        },
        sent2.journal().describe() == journal.describe(),
    );
    check(
        "alerts HTML byte-identical across runs",
        "byte-stable",
        if html2 == html {
            "byte-stable"
        } else {
            "unstable"
        },
        html2 == html && html.contains("<h2>Alerts</h2>"),
    );
    check(
        "chrome trace carries the alert instants",
        "FIRING marker",
        if chrome.contains("FIRING rate-shift(bcopy) delta +250 us/ms") {
            "FIRING marker"
        } else {
            "missing"
        },
        chrome.contains("FIRING rate-shift(bcopy) delta +250 us/ms"),
    );

    // The SNMP trap subtree serves one row per transition next to the
    // telemetry arcs, with the Firing row labelled exactly.
    let exp = TrapExporter::default();
    let (mib, legend) = exp.export(journal);
    let (objs, _) = exp.walk(&mib);
    check(
        "trap objects (3 rows x 7 fields)",
        "21",
        &objs.len().to_string(),
        objs.len() == 21,
    );
    check(
        "firing trap label",
        "rate-shift(bcopy) FIRING",
        legend
            .label_of(&legend.entries[1].oid)
            .as_deref()
            .unwrap_or("-"),
        legend.label_of(&legend.entries[1].oid).as_deref() == Some("rate-shift(bcopy) FIRING"),
    );

    // Fleet roll-up: the same detector firing on two of three machines
    // reaches the quorum and promotes to fleet level.
    let (_, steady) = watch_stream(&tf, &tags, false);
    let members = [
        (0u32, journal),
        (1u32, steady.journal()),
        (2u32, sent2.journal()),
    ];
    let alerts = FleetSentinel::new(2).roll_up(&members);
    let promoted = alerts.len() == 1
        && alerts[0].fleet_level
        && alerts[0].machines == vec![0, 2]
        && alerts[0].subject == "bcopy";
    check(
        "fleet roll-up at quorum 2",
        "bcopy FLEET-LEVEL on m0 m2",
        &alerts
            .first()
            .map(|a| a.describe_line())
            .unwrap_or_else(|| "-".to_string()),
        promoted,
    );
    check(
        "steady machine stays silent",
        "empty journal",
        if steady.journal().is_empty() {
            "empty journal"
        } else {
            "alerted"
        },
        steady.journal().is_empty(),
    );

    // The sentinel is a pure read over the recorder: a watch whose
    // default sentinel fires still leaves the capture, and every byte
    // rendered from it, equal to a plain record() run.
    let policy = SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    };
    let experiment = || {
        Experiment::new()
            .profile_all()
            .board(BoardConfig {
                capacity: 1024,
                time_bits: 24,
            })
            .scenario(scenarios::network_receive(64 * 1024, true))
    };
    let rcfg = RecorderConfig::builder()
        .window_us(5_000)
        .retain(512)
        .build()
        .expect("valid config");
    let plain = experiment()
        .record(policy.clone(), rcfg)
        .expect("recorded run");
    let watched = experiment()
        .watch(policy, rcfg, SentinelConfig::default())
        .expect("watched run");
    let fired = watched
        .sentinel()
        .journal()
        .entries()
        .iter()
        .any(|e| e.transition == AlertTransition::Firing);
    let capture = watched.handle().as_profile();
    let identical = capture.chrome_trace() == plain.as_profile().chrome_trace()
        && capture.html() == plain.as_profile().html();
    check(
        "firing sentinel leaves the capture untouched",
        "record() bytes",
        if !fired {
            "never fired"
        } else if identical {
            "record() bytes"
        } else {
            "bytes drifted"
        },
        fired && identical,
    );

    if !all_ok {
        exit(1);
    }
    println!("\nE22 OK: the sentinel fires, resolves, and exports exactly.");
}

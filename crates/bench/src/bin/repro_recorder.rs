//! E21 — the always-on flight recorder: a deterministic capture stream
//! with a mid-stream workload shift (`bcopy` gets 6× hotter halfway
//! through) is folded into fixed-width window rollups, and the
//! recorder's differential report must rank the hotter function first
//! with the exact pinned delta.  Pins the invariants CI gates on:
//! per-window rollup totals, the exact mover delta and growth, diff
//! antisymmetry of the ranked report, byte-identical window and diff
//! HTML across two independent runs, and an exact eviction ledger when
//! the ring is too small for the stream.

use std::process::exit;

use hwprof::analysis::{FlightRecorder, WindowDiff, WindowRollup};
use hwprof::profiler::{RawRecord, RecorderConfig, SupervisedSession, TagMaskLevel};
use hwprof::tagfile::{TagFile, TagKind};
use hwprof_bench::{banner, row};

/// Window width; every synthetic session covers exactly one window.
const WINDOW_US: u64 = 1_000;
/// Sessions (= windows) in the stream; the shift lands halfway.
const SESSIONS: u64 = 8;
const SHIFT_AT: u64 = 4;

/// The instrumented functions: (name, phase-1 calls, phase-2 calls,
/// per-call µs).  Only `bcopy` changes at the shift.
const FNS: &[(&str, u64, u64, u64)] = &[
    ("bcopy", 5, 10, 30),
    ("ip_input", 4, 4, 20),
    ("tcp_input", 3, 3, 30),
    ("mbuf_get", 10, 10, 2),
];
/// Phase-1 `bcopy` runs short calls; phase 2 runs full-length ones.
const BCOPY_P1_US: u64 = 10;

fn tagfile() -> (TagFile, Vec<u16>) {
    let mut tf = TagFile::new(500);
    let tags: Vec<u16> = FNS
        .iter()
        .map(|(name, ..)| tf.assign(name, TagKind::Function).expect("fresh"))
        .collect();
    tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    (tf, tags)
}

/// One window-aligned session: flat back-to-back calls, phase picked
/// by the session index.
fn session(index: u64, tags: &[u16]) -> SupervisedSession {
    let phase2 = index >= SHIFT_AT;
    let mut records = Vec::new();
    let mut t = 0u64;
    for (i, &(name, p1, p2, dur)) in FNS.iter().enumerate() {
        let calls = if phase2 { p2 } else { p1 };
        let dur = if name == "bcopy" && !phase2 {
            BCOPY_P1_US
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

/// Builds a recorder over the full stream and returns one phase-1 and
/// one phase-2 rollup plus the cross-shift diff.
fn record(tf: &TagFile, tags: &[u16], retain: usize) -> FlightRecorder {
    let cfg = RecorderConfig::builder()
        .window_us(WINDOW_US)
        .retain(retain)
        .build()
        .expect("non-degenerate config");
    let rec = FlightRecorder::new(tf, cfg);
    for i in 0..SESSIONS {
        rec.ingest_session(&session(i, tags));
    }
    rec
}

fn main() {
    banner(
        "E21",
        "flight recorder: windowed rollups + differential report",
    );
    let mut all_ok = true;
    let mut check = |metric: &str, paper: &str, measured: &str, ok: bool| {
        row(metric, paper, measured, ok);
        all_ok &= ok;
    };

    let (tf, tags) = tagfile();
    let rec = record(&tf, &tags, 64);

    // Every window of the stream is retained and rolls up the exact
    // per-phase totals.
    check(
        "windows retained",
        &SESSIONS.to_string(),
        &(rec.retained().end - rec.retained().start).to_string(),
        rec.retained() == (0..SESSIONS),
    );
    let w1: WindowRollup = rec.window(0).expect("phase-1 window");
    let w2: WindowRollup = rec.window(SHIFT_AT).expect("phase-2 window");
    let net = |r: &WindowRollup, name: &str| r.recon.agg(name).map(|a| a.net).unwrap_or(0);
    check(
        "phase-1 bcopy net us",
        "50",
        &net(&w1, "bcopy").to_string(),
        net(&w1, "bcopy") == 50,
    );
    check(
        "phase-2 bcopy net us",
        "300",
        &net(&w2, "bcopy").to_string(),
        net(&w2, "bcopy") == 300,
    );

    // The differential report across the shift: the hotter function
    // ranks first, with the exact delta.
    let diff: WindowDiff = rec.diff(0, SHIFT_AT).expect("both retained");
    let top = &diff.rows[0];
    check("top-ranked mover", "bcopy", &top.name, top.name == "bcopy");
    check(
        "bcopy net delta us",
        "+250",
        &format!("{:+}", top.d_net),
        top.d_net == 250,
    );
    check(
        "bcopy call delta",
        "+5",
        &format!("{:+}", top.d_calls),
        top.d_calls == 5,
    );
    let growth = top.growth_pct.unwrap_or(f64::NAN);
    check(
        "bcopy rate growth",
        "500%",
        &format!("{growth:.2}%"),
        (growth - 500.0).abs() < 1e-6,
    );
    let steady = diff
        .rows
        .iter()
        .skip(1)
        .all(|r| r.d_net == 0 && r.d_calls == 0);
    check(
        "other functions unchanged",
        "all zero deltas",
        if steady { "all zero" } else { "drifted" },
        steady,
    );
    let mover = diff.movers(1).first().map_or("", |r| r.name.as_str());
    check(
        "movers(1) agrees with ranking",
        "bcopy",
        mover,
        mover == "bcopy",
    );

    // Antisymmetry of the ranked report.
    let rev = rec.diff(SHIFT_AT, 0).expect("both retained");
    let anti = diff.rows.len() == rev.rows.len()
        && diff
            .rows
            .iter()
            .zip(&rev.rows)
            .all(|(f, r)| f.name == r.name && f.d_net == -r.d_net && f.d_calls == -r.d_calls);
    check(
        "diff antisymmetric",
        "negated mirror",
        if anti { "negated mirror" } else { "asymmetric" },
        anti,
    );

    // Byte determinism: a second independent run renders identical
    // window and diff HTML.
    let rec2 = record(&tf, &tags, 64);
    let html_ok = rec2.window(SHIFT_AT).expect("retained").html() == w2.html()
        && rec2.diff(0, SHIFT_AT).expect("both retained").html() == diff.html()
        && diff.html().starts_with("<!DOCTYPE html>");
    check(
        "HTML byte-identical across runs",
        "byte-stable",
        if html_ok { "byte-stable" } else { "unstable" },
        html_ok,
    );

    // Eviction: a ring of 3 cannot hold 8 windows; the ledger stays
    // exact with the pinned split.
    let small = record(&tf, &tags, 3);
    let ledger = small.ledger();
    check(
        "eviction ledger exact",
        "covered+dark+evicted==elapsed",
        if ledger.is_exact() { "exact" } else { "BROKEN" },
        ledger.is_exact(),
    );
    check(
        "evicted span us",
        "5000",
        &ledger.evicted_us.to_string(),
        ledger.evicted_us == 5_000 && ledger.evicted_windows == 5,
    );
    check(
        "retained windows",
        "3",
        &ledger.windows.to_string(),
        ledger.windows == 3 && small.retained() == (5..8),
    );
    check(
        "evicted window refuses queries",
        "None",
        if small.window(0).is_none() {
            "None"
        } else {
            "Some"
        },
        small.window(0).is_none() && small.diff(0, 7).is_none(),
    );

    if !all_ok {
        exit(1);
    }
    println!("\nE21 OK: windowed rollups and differential report reproduce exactly.");
}

//! Shared support for the `repro_*` binaries: each regenerates one
//! table or figure from the paper and prints paper-vs-measured rows.
//!
//! Run them all with:
//!
//! ```text
//! for b in crates/bench/src/bin/repro_*.rs; do
//!     b=$(basename "$b" .rs)
//!     cargo run -q -p hwprof-bench --bin "$b"
//! done
//! ```
//!
//! The [`gate`] module backs the `bench_gate` binary: it diffs a fresh
//! `BENCH_*.json` run against the checked-in baselines and fails CI on
//! throughput regressions.

pub mod gate;

use hwprof::{Registry, SpanLog};
use hwprof_analysis::{Reconstruction, StreamAnalyzer, Symbols};
use hwprof_profiler::{BankSink, RawRecord, SupervisedRun, SupervisedSession, TagMaskLevel};
use hwprof_tagfile::{TagFile, TagKind};

/// Re-stitches a supervised run through the streaming pipeline: each
/// delivered bank fed in order to `workers` analysis threads, the
/// run's coverage folded into the merged result so it compares equal
/// to `Analyzer::run`.  `reg` receives the pipeline's `stream.*`
/// metrics (none when inert).  `None` if the pipeline refused a bank.
pub fn stream_stitch(
    tf: &TagFile,
    run: &SupervisedRun,
    workers: usize,
    reg: &Registry,
) -> Option<Reconstruction> {
    let pipeline = StreamAnalyzer::spawn(tf, workers, false, reg, &SpanLog::default());
    let mut feed = pipeline.feed();
    let fed = run.sessions.iter().all(|s| feed.bank(s.records.clone()));
    drop(feed);
    let empty = || Reconstruction::empty(Symbols::from_tagfile(tf));
    let mut r = pipeline
        .finish()
        .remove(&0)
        .map_or_else(empty, |s| s.profile);
    r.note_coverage(&run.coverage);
    fed.then_some(r)
}

/// Window width of the workload-shift stream (E21, E22): every
/// session covers exactly one window.
pub const SHIFT_WINDOW_US: u64 = 1_000;

/// The shift stream's functions: (name, steady calls, shifted calls,
/// per-call µs).  Only `bcopy` changes when the workload shifts.
const SHIFT_FNS: &[(&str, u64, u64, u64)] = &[
    ("bcopy", 5, 10, 30),
    ("ip_input", 4, 4, 20),
    ("tcp_input", 3, 3, 30),
    ("mbuf_get", 10, 10, 2),
];
/// Outside the shift `bcopy` runs short calls.
const BCOPY_STEADY_US: u64 = 10;

/// The shift stream's tag file and its functions' entry tags.
pub fn shift_tagfile() -> (TagFile, Vec<u16>) {
    let mut tf = TagFile::new(500);
    let tags: Vec<u16> = SHIFT_FNS
        .iter()
        .map(|(name, ..)| tf.assign(name, TagKind::Function).expect("fresh"))
        .collect();
    tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    (tf, tags)
}

/// Session `index` of the shift stream, aligned to its window: flat
/// back-to-back calls, with the hot `bcopy` when `shifted`.
pub fn shift_session(index: u64, tags: &[u16], shifted: bool) -> SupervisedSession {
    let mut records = Vec::new();
    let mut t = 0u64;
    for (i, &(name, steady, hot, dur)) in SHIFT_FNS.iter().enumerate() {
        let calls = if shifted { hot } else { steady };
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
    assert!(t < SHIFT_WINDOW_US, "one session must fit its window");
    SupervisedSession {
        index,
        start_us: index * SHIFT_WINDOW_US,
        end_us: (index + 1) * SHIFT_WINDOW_US,
        level: TagMaskLevel::All,
        records,
    }
}

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints one paper-vs-measured comparison row.
pub fn row(metric: &str, paper: &str, measured: &str, ok: bool) {
    println!(
        "  {:<44} paper {:>14}   measured {:>14}   [{}]",
        metric,
        paper,
        measured,
        if ok { "ok" } else { "off" }
    );
}

/// Formats a µs value.
pub fn us(v: u64) -> String {
    format!("{v} us")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Formats a ms value from µs.
pub fn ms(v_us: u64) -> String {
    format!("{:.1} ms", v_us as f64 / 1000.0)
}

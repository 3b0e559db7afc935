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
use hwprof_profiler::{BankSink, SupervisedRun};
use hwprof_tagfile::TagFile;

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

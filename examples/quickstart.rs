//! Quickstart: profile a kernel under network load and print both of the
//! paper's reports.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hwprof::analysis::{summary_report, trace_report, TraceStyle};
use hwprof::{scenarios, Experiment};

fn main() {
    // Build a kernel with the network path compiled for profiling,
    // plug the Profiler into the EPROM socket, and stream ~128 KiB of
    // TCP at it.
    let capture = Experiment::new()
        .profile_modules(&["net", "locore", "kern", "sys"])
        .scenario(scenarios::network_receive(128 * 1024, false))
        .try_run()
        .expect("experiment runs");

    println!(
        "Board: {} events captured, overflow LED {}",
        capture.records.len(),
        if capture.overflowed { "ON" } else { "off" }
    );
    println!(
        "_ProfileBase resolved to {:#010x} by the two-stage link\n",
        capture.link.profile_base
    );

    // Report 1: the per-function summary (paper Figure 3).
    let profile = capture.analyze();
    println!("{}", summary_report(&profile, Some(12)));

    // Report 2: the first two milliseconds of the code-path trace
    // (paper Figure 4).
    let style = TraceStyle {
        max_lines: Some(60),
    };
    println!("{}", trace_report(&profile, &style));
}

//! E14 — the streaming pipeline: a drain-while-armed capture an order
//! of magnitude past the 16384-event RAM, analyzed concurrently with
//! the run, plus the batch-vs-parallel reconstruction speedup.  Exits
//! non-zero when parallel != batch; the other rows are informational.

use std::time::Instant;

use hwprof::analysis::{summary_report, Analyzer, Event, SessionDecoder, Symbols, TagMap};
use hwprof::profiler::BoardConfig;
use hwprof::{scenarios, Experiment};
use hwprof_bench::{banner, row};

fn main() {
    banner("E14", "drain-while-armed streaming capture and analysis");
    let total = 2500 * 1024;

    // The streaming run: stock 16384-event board, four analysis workers
    // eating half-RAM banks while the TCP blast is still arriving.
    let t0 = Instant::now();
    let stream = Experiment::new()
        .profile_all()
        .board(BoardConfig::default())
        .scenario(scenarios::network_receive(total, true))
        .try_run_streaming(4)
        .expect("pipeline keeps up");
    let wall = t0.elapsed();
    row(
        "events captured past a 16384 RAM",
        "> 200000",
        &stream.profile.tags.to_string(),
        stream.profile.tags >= 200_000,
    );
    row(
        "banks drained while armed",
        "> 10",
        &stream.banks.to_string(),
        stream.banks > 10,
    );
    row(
        "triggers missed",
        "0",
        &stream.missed.to_string(),
        stream.missed == 0,
    );
    println!(
        "\nFigure 3 summary of the whole streamed capture \
         ({} events, {:.2} s host wall):\n",
        stream.profile.tags,
        wall.as_secs_f64()
    );
    println!("{}", summary_report(&stream.profile, Some(10)));

    // The speedup question: same banks, batch vs fanned reconstruction.
    let capture = Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1 << 21,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(total, true))
        .try_run()
        .expect("experiment runs");
    let map = TagMap::from_tagfile(&capture.tagfile);
    let syms = Symbols::from_tagfile(&capture.tagfile);
    let sessions: Vec<Vec<Event>> = capture
        .records
        .chunks(8192)
        .map(|bank| {
            let mut d = SessionDecoder::new(&map);
            let mut ev = Vec::new();
            d.extend(bank, &mut ev);
            ev
        })
        .collect();
    let time = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .expect("five runs")
    };
    let batch = Analyzer::new(&syms);
    let fanned = batch.clone().workers(4);
    let batch_t = time(&|| {
        batch.sessions(&sessions).expect("ungated");
    });
    let par_t = time(&|| {
        fanned.sessions(&sessions).expect("ungated");
    });
    let speedup = batch_t.as_secs_f64() / par_t.as_secs_f64();
    let identical =
        fanned.sessions(&sessions).expect("ungated") == batch.sessions(&sessions).expect("ungated");
    row(
        "parallel == batch (bit-identical)",
        "yes",
        if identical { "yes" } else { "no" },
        identical,
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The fan-out only buys wall time when the host actually has the
    // cores; below four the expectation is just "not much slower".
    let (expect, ok) = if cores >= 4 {
        (">= 2x", speedup >= 2.0)
    } else {
        ("n/a (<4 cores)", speedup >= 0.5)
    };
    row(
        &format!("reconstruction speedup, 4 workers on {cores} core(s)"),
        expect,
        &format!(
            "{speedup:.2}x ({} -> {} us over {} banks)",
            batch_t.as_micros(),
            par_t.as_micros(),
            sessions.len()
        ),
        ok,
    );
    if !identical {
        std::process::exit(1);
    }
}

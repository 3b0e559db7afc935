//! End-to-end and per-layer benchmark of the hwprof profiling pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload net_profile --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` runs the workload as a closed loop with one caller and
//! reports the end-to-end metrics.  `--trace 1` first runs the same loop
//! for half the time, then composes the same pipeline from each layer's
//! public calls, records a span around every call, and reports the
//! per-layer metrics with the unattributed remainder.  The last line of
//! standard output is one JSON object; the lines before it are for
//! people.

mod checks;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use checks::DigestCheck;
use stats::{median, tail, Metric};
use workloads::{Setup, Workload};

/// Set-ups before the first iteration.
const SETUPS_BEFORE: usize = 21;
/// Set-ups after every iteration.  `setup_s` is the median over all of
/// them: the host's speed changes within seconds, so set-ups taken only
/// at the start would measure the host at one moment.
const SETUPS_BETWEEN: usize = 3;

/// Where digests and span files go: inside the benchmark's own
/// directory, which `.gitignore` excludes.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Iterations attempted and failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one iteration with the outcome of its checks.
    pub fn record(&mut self, outcome: checks::Check) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: iteration {} failed: {e}", self.attempted);
        }
    }
}

/// What the closed loop measured.
pub struct Loop {
    /// Wall time of every timed iteration, in ms.
    pub iter_ms: Vec<f64>,
    /// Board records of the last successful iteration.
    pub events: u64,
}

/// One timed set-up, its time added to `samples`.
fn timed_setup(w: Workload, seed: u64, samples: &mut Vec<f64>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let setup = Setup::new(w, seed).map_err(|e| format!("set-up failed: {e}"))?;
    samples.push(t0.elapsed().as_secs_f64());
    Ok(setup)
}

/// Runs `setup`'s workload as a closed loop with one caller for
/// `budget`: each iteration starts after the previous one returned
/// every output and those outputs were checked.  A warm-up iteration
/// runs first, checked like the others but not timed, so allocator
/// growth and lazy set-up stay out of the timings.  Between iterations,
/// outside the timings, the set-up is timed again into `setup_s`.
pub fn closed_loop(
    setup: &Setup,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    digests: &mut DigestCheck,
    setup_s: &mut Vec<f64>,
) -> Result<Loop, String> {
    let mut iter_ms = Vec::new();
    let mut events = 0;
    let mut start = None;
    while start.is_none_or(|s: Instant| s.elapsed() < budget) {
        let t0 = Instant::now();
        let outputs = setup.iterate();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let first = digests.value().is_none();
        let outcome = outputs.map_err(|e| e.to_string()).and_then(|o| {
            o.check(first)?;
            digests.check(o.digest())?;
            events = o.events();
            Ok(())
        });
        if start.is_some() && outcome.is_ok() {
            iter_ms.push(ms);
        }
        tally.record(outcome);
        for _ in 0..SETUPS_BETWEEN {
            timed_setup(setup.workload, seed, setup_s)?;
        }
        start.get_or_insert_with(Instant::now);
    }
    Ok(Loop { iter_ms, events })
}

/// High-water mark of this process's resident memory, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A key that separates digests of different builds.
fn build_key() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    match meta {
        Ok(m) => {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{:x}", m.len(), mtime)
        }
        Err(_) => "unknown".to_string(),
    }
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let w = args.workload;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={parallelism}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Untimed preparation, repeated so that its median is steady.
    let mut setup_s = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        timed_setup(w, args.seed, &mut setup_s)?;
    }
    let setup = timed_setup(w, args.seed, &mut setup_s)?;

    let mut tally = Tally::default();
    let mut digests = DigestCheck::new(
        &out_dir().join("digests"),
        &format!("{}-seed{}-{}", w.name(), args.seed, build_key()),
    );
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        let e2e = closed_loop(
            &setup,
            args.seed,
            budget / 2,
            &mut tally,
            &mut digests,
            &mut setup_s,
        )?;
        let p50 = median(&e2e.iter_ms);
        println!("untraced iter_ms_p50 {p50:.3} ms (n={})", e2e.iter_ms.len());
        let spans = out_dir().join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed));
        traced::run(&setup, budget / 2, p50, &mut tally, &digests, &spans)?
    } else {
        let e2e = closed_loop(
            &setup,
            args.seed,
            budget,
            &mut tally,
            &mut digests,
            &mut setup_s,
        )?;
        let setup_median = median(&setup_s);
        let n = e2e.iter_ms.len();
        let p50 = median(&e2e.iter_ms);
        let (tail_ms, pct) = tail(&e2e.iter_ms);
        let rss = peak_rss_mib();
        let events_per_s = e2e.events as f64 / (p50 / 1e3);
        println!(
            "setup_s {setup_median:.6} s (median of {} set-ups)",
            setup_s.len()
        );
        let q = |p: f64| stats::quantile(&e2e.iter_ms, p);
        println!(
            "iter_ms_p50 {p50:.3} ms (n={n}; q25 {:.3}, q75 {:.3}, min {:.3})",
            q(0.25),
            q(0.75),
            q(0.0)
        );
        println!("iter_ms_tail {tail_ms:.3} ms (p{pct:.1}, n={n})");
        println!(
            "events_per_s {events_per_s:.0} 1/s ({} events per iteration)",
            e2e.events
        );
        println!("peak_rss_mib {rss:.1} MiB");
        vec![
            Metric::new("events_per_s", events_per_s, "1/s"),
            Metric::new("iter_ms_p50", p50, "ms"),
            Metric::new("iter_ms_tail", tail_ms, "ms"),
            Metric::new("peak_rss_mib", rss, "MiB"),
            Metric::new("setup_s", setup_median, "s"),
        ]
    };
    println!(
        "fail_ratio {} ({}/{})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    if let Some(d) = digests.value() {
        println!("output digest {d:016x}");
    }
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            println!(
                "{}",
                stats::result_json(tally.failed == 0, tally.attempted, tally.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

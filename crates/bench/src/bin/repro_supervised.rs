//! E16 — supervised capture under overload: a saturated receive
//! workload that overflows the stock board several times over runs to
//! completion under `Experiment::supervised()`.  Sweeps the effective
//! event-rate-to-bank-size ratio (by shrinking the board) and a flaky
//! upload transport, printing achieved coverage against the policy
//! floor.  Exits nonzero if any pinned check fails, so CI can gate on
//! the fixed-seed coverage threshold.

use std::process::exit;

use hwprof::analysis::{summary_report, Analyzer};
use hwprof::profiler::BoardConfig;
use hwprof::{scenarios, Experiment, Registry, SupervisorPolicy};
use hwprof_bench::{banner, pct, row, stream_stitch};

const SEED: u64 = 0x1993_0617;
/// CI gate: the stock-board run at the fixed seed must cover at least
/// this fraction of the timeline.
const COVERAGE_FLOOR: f64 = 0.90;
const WORKLOAD_BYTES: u64 = 1024 * 1024;

fn experiment(capacity: usize) -> Experiment {
    Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(WORKLOAD_BYTES, true))
}

fn main() {
    banner(
        "E16",
        "supervised capture: overflow re-arm, mask ladder, retrying uploads",
    );
    let mut all_ok = true;
    let mut check = |metric: &str, paper: &str, measured: &str, ok: bool| {
        row(metric, paper, measured, ok);
        all_ok &= ok;
    };

    // The headline run: stock 16384-event board, default policy.
    let policy = SupervisorPolicy {
        seed: SEED,
        ..SupervisorPolicy::default()
    };
    let cap = experiment(BoardConfig::default().capacity)
        .supervised(policy)
        .unwrap_or_else(|e| {
            eprintln!("stock-board supervised run failed: {e}");
            exit(1);
        });
    let cov = *cap.coverage();
    println!(
        "stock board: {} events across {} sessions, {} gaps ({} overflow points)\n",
        cap.run.events(),
        cap.run.sessions.len(),
        cov.gaps,
        cov.overflow_gaps,
    );
    check(
        "workload overflows the stock board",
        ">= 3 fills",
        &format!("{} fills", cov.overflow_gaps),
        cov.overflow_gaps >= 3,
    );
    check(
        "run completes with coverage above the floor",
        &pct(COVERAGE_FLOOR * 100.0),
        &pct(cov.fraction() * 100.0),
        cov.fraction() >= COVERAGE_FLOOR,
    );
    check(
        "ledger partitions the timeline exactly",
        "covered + dark = total",
        if cov.covered_us + cov.gap_us == cov.timeline_us {
            "exact"
        } else {
            "off"
        },
        cov.covered_us + cov.gap_us == cov.timeline_us,
    );
    let stitcher = Analyzer::for_tagfile(&cap.tagfile);
    let seq = stitcher.run(&cap.run).expect("ungated");
    let par = stitcher.clone().workers(4).run(&cap.run).expect("ungated");
    let streamed = stream_stitch(&cap.tagfile, &cap.run, 4, &Registry::default());
    let identical = seq == cap.profile && seq == par && streamed.as_ref() == Some(&seq);
    check(
        "batch/parallel/streaming stitches agree",
        "bit-identical",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        identical,
    );

    // A flaky wire: 20% of upload attempts fail; retries and the spill
    // shelf must keep the capture alive.
    let flaky = experiment(BoardConfig::default().capacity)
        .supervised(SupervisorPolicy {
            seed: SEED,
            transport_fail_ppm: 200_000,
            min_coverage_ppm: 0,
            ..SupervisorPolicy::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("flaky-transport supervised run failed: {e}");
            exit(1);
        });
    let fcov = *flaky.coverage();
    check(
        "20% transport loss: capture still delivered",
        "coverage >= 85%",
        &pct(fcov.fraction() * 100.0),
        fcov.fraction() >= 0.85,
    );
    check(
        "20% transport loss: retries recorded",
        "> 0",
        &fcov.retries.to_string(),
        fcov.retries > 0 || fcov.transport_failures == 0,
    );

    // Event rate vs coverage: the same saturated stream against ever
    // smaller banks — a rising rate-to-capacity ratio.  The ladder
    // sheds load; coverage must degrade gracefully, not collapse.
    println!(
        "\n{:>10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "capacity", "sessions", "gaps", "downs", "masked", "lvl end", "coverage"
    );
    let mut ladder_fired = false;
    for capacity in [16384usize, 4096, 1024, 256] {
        let c = experiment(capacity)
            .supervised(SupervisorPolicy {
                seed: SEED,
                min_coverage_ppm: 0,
                ..SupervisorPolicy::default()
            })
            .unwrap_or_else(|e| {
                eprintln!("capacity-{capacity} supervised run failed: {e}");
                exit(1);
            });
        let cc = *c.coverage();
        ladder_fired |= cc.mask_downgrades > 0;
        println!(
            "{:>10} {:>10} {:>8} {:>8} {:>10} {:>10?} {:>9.1}%",
            capacity,
            c.run.sessions.len(),
            cc.gaps,
            cc.mask_downgrades,
            cc.masked_events,
            c.run.final_level,
            cc.fraction() * 100.0,
        );
    }
    check(
        "shrinking banks trip the degradation ladder",
        "downgrades > 0",
        if ladder_fired { "yes" } else { "never" },
        ladder_fired,
    );

    println!("\nFigure 3 summary with the Coverage block:\n");
    println!("{}", summary_report(&cap.profile, Some(10)));

    if !all_ok {
        eprintln!("E16: one or more pinned checks failed");
        exit(1);
    }
}

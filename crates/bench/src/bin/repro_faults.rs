//! E15 — capture corruption tolerance: one real capture pushed through
//! the seeded fault injector at increasing rates, re-analyzed in
//! recovery mode.  Rate 0 must be bit-identical to the direct path;
//! at every rate each injected fault must show up in the anomaly
//! summary, and the hot-function ranking must degrade gracefully
//! instead of collapsing.  Exits non-zero when an exactness row is off.

use hwprof::analysis::{summary_report, Analyzer, Anomalies, Reconstruction};
use hwprof::profiler::{parse_raw_lossy, serialize_raw, FaultInjector, FaultSpec};
use hwprof::{scenarios, Experiment};
use hwprof_bench::{banner, row};

const SEED: u64 = 0x1993_0617;
const RATES_PPM: [u32; 4] = [0, 500, 5_000, 50_000];

fn main() {
    banner(
        "E15",
        "fault injection and corruption-tolerant reconstruction",
    );

    // One clean Figure-3-style capture, reused for every fault rate.
    let capture = Experiment::new()
        .profile_modules(&["net", "locore", "kern"])
        .scenario(scenarios::network_receive(48 * 1024, true))
        .try_run()
        .expect("experiment runs");
    let clean_bytes = serialize_raw(&capture.records);
    let recovering = Analyzer::for_tagfile(&capture.tagfile).recovering(true);
    let analyze = |bytes: &[u8]| -> Reconstruction {
        let (records, trailing) = parse_raw_lossy(bytes);
        let mut r = recovering.records(&records).expect("ungated");
        if trailing > 0 {
            r.note(&Anomalies {
                truncations: 1,
                ..Anomalies::default()
            });
        }
        r
    };
    let clean = analyze(&clean_bytes);
    let (hot_sym, hot) = clean
        .stats
        .iter()
        .enumerate()
        .max_by_key(|(_, a)| a.net)
        .expect("nonempty");
    let hot_name = clean.syms.name(hot_sym as u32).to_string();
    let hot_net = hot.net;
    println!(
        "clean capture: {} records, hottest function {} ({} us net)\n",
        capture.records.len(),
        hot_name,
        hot_net
    );

    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>14} {:>14}",
        "rate ppm", "injected", "anomalies", "elapsed us", "hot net us", "hot drift %"
    );
    let mut faulted_summary = None;
    let mut exact = true;
    for rate in RATES_PPM {
        let inj = FaultInjector::new(
            FaultSpec {
                flip_bit: Some(39),
                ..FaultSpec::uniform(rate)
            },
            SEED,
        );
        let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&capture.records)));
        let r = analyze(&bytes);
        let counts = inj.counts();
        let net = r.agg(&hot_name).map_or(0, |a| a.net);
        let drift = (net as f64 - hot_net as f64).abs() / hot_net as f64 * 100.0;
        println!(
            "{:>10} {:>10} {:>10} {:>12} {:>14} {:>13.2}%",
            rate,
            counts.total(),
            r.anomalies.total(),
            r.total_elapsed,
            net,
            drift
        );
        if rate == 0 {
            exact &= r == clean;
            row(
                "rate 0 through the injector is bit-identical",
                "yes",
                if r == clean { "yes" } else { "NO" },
                r == clean,
            );
        } else {
            let surfaced = counts.total() == 0 || r.anomalies.total() > 0;
            exact &= surfaced;
            row(
                &format!("{rate} ppm: faults surface as anomalies"),
                "anomalies > 0",
                &r.anomalies.total().to_string(),
                surfaced,
            );
            row(
                &format!("{rate} ppm: hottest function still found"),
                &hot_name,
                if net > 0 { &hot_name } else { "lost" },
                net > 0,
            );
        }
        if rate == *RATES_PPM.last().expect("nonempty") {
            faulted_summary = Some(r);
        }
    }

    let worst = faulted_summary.expect("loop ran");
    println!(
        "\nFigure 3 summary at {} ppm (integrity block appended):\n",
        RATES_PPM.last().expect("nonempty")
    );
    println!("{}", summary_report(&worst, Some(10)));
    if !exact {
        std::process::exit(1);
    }
}
